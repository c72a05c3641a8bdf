//! Min-period retiming: binary search over integer candidate periods with
//! two feasibility oracles.
//!
//! * Host-free graphs use the Leiserson–Saxe **FEAS** relaxation — fast,
//!   and sound because every violating vertex can be incremented. An
//!   infeasible target ends as soon as the increments' predecessor graph
//!   closes a cycle, a certificate that no retiming meets it (see
//!   `feas_loop`), instead of after `|V| + 1` passes. Each probe of a
//!   search starts from the last feasible probe's retiming and reuses one
//!   arc CSR.
//! * Graphs with a host vertex use the **constraint oracle**: emit the W/D
//!   period constraints for the candidate period and solve the
//!   difference-constraint system with Bellman–Ford. FEAS is unsound
//!   there: the host must not be incremented (it pins I/O latency and
//!   does not propagate combinational signals), so a violating primary
//!   output driver cannot legally be incremented past a zero-weight host
//!   edge.
//!
//! Every search probes its floor first: the largest single-vertex delay
//! `d_max` on a host-free graph (the optimum of every host-free DAG, such
//! as the pipelined mesh), and on a host graph its **cycle-ratio floor**
//! `max(d_max, ⌈λ*⌉)`, where λ* is the largest `Σ delay / Σ flip-flops`
//! over cycles that avoid the host (see `cycle_ratio_floor`). A feasible
//! floor ends the search; an infeasible one ends at its cycle
//! certificate, and the binary search goes on above it. The returned
//! retiming does not depend on the probe order: FEAS from any start at or
//! below the least feasible retiming ends there.
//!
//! The constraint oracle is **incremental across probes**: the W/D
//! substrate ([`WdSubstrate`]) is built once for the
//! bracket `[floor, T_init]` (one `retime.wd_build` span per
//! [`try_min_period_retiming`] call, counted by `retime.probe` /
//! `retime.wd_cache_hits`), each probe re-emits its constraint set with a
//! linear scan, and Bellman–Ford warm-starts from the previous feasible
//! probe's potentials ([`DifferenceConstraints::solve_warm`]). The
//! surviving substrate is returned in [`MinPeriodOutcome`] so callers
//! probing a *derived* period in the same bracket (the planner's `t_clk`)
//! reuse it too.

use crate::constraints::{edge_constraints, generate_period_constraints, WdSubstrate};
use crate::graph::{RetimeGraph, VertexId};
use crate::minarea::RetimeError;
use lacr_mcmf::{Constraint, DifferenceConstraints};

/// The minimum period found by [`try_min_period_retiming`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinPeriodResult {
    /// The minimum feasible clock period (integer picoseconds).
    pub period: u64,
    /// A retiming vector achieving it.
    pub retiming: Vec<i64>,
}

/// Result of [`try_min_period_retiming`]: the period/retiming pair plus
/// the W/D substrate the search built, when it built one.
#[derive(Debug, Clone)]
pub struct MinPeriodOutcome {
    /// The minimum feasible period and a retiming achieving it.
    pub result: MinPeriodResult,
    /// The W/D substrate covering the search bracket `[floor, unretimed
    /// period]`, where the floor is the larger of the largest
    /// single-vertex delay and `⌈λ*⌉`, the host-avoiding cycle-ratio bound
    /// (both at most the optimum). `None` when no constraint-oracle probe
    /// ran (host-free graphs, empty graphs, or a bracket that was already
    /// collapsed). Any target in the bracket — in particular every period
    /// between the returned optimum and the unretimed period — can be
    /// served by [`WdSubstrate::constraints_for`] without another W/D
    /// build; its `pairs_before_pruning` counts the pairs violating at the
    /// floor.
    pub substrate: Option<WdSubstrate>,
}

/// Returns a retiming achieving clock period `≤ target`: `Ok(None)` means
/// no retiming can.
///
/// # Errors
///
/// * [`RetimeError::CombinationalCycle`] — some directed cycle carries no
///   flip-flop.
/// * [`RetimeError::DelayOverflow`] — accumulating path delays overflowed
///   `u64`.
///
/// # Examples
///
/// ```
/// use lacr_retime::{try_feasible_retiming, RetimeGraph, VertexKind};
///
/// let mut g = RetimeGraph::new();
/// let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
/// let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
/// g.add_edge(a, b, 0);
/// g.add_edge(b, a, 2);
/// // Unretimed period is 10; one flop can move to cut the a→b path.
/// let r = try_feasible_retiming(&g, 5)?.expect("5 is achievable");
/// let w = g.retimed_weights(&r);
/// assert_eq!(g.try_clock_period(&w), Ok(5));
/// assert!(try_feasible_retiming(&g, 4)?.is_none());
/// # Ok::<(), lacr_retime::RetimeError>(())
/// ```
pub fn try_feasible_retiming(
    graph: &RetimeGraph,
    target: u64,
) -> Result<Option<Vec<i64>>, RetimeError> {
    let n = graph.num_vertices();
    if n == 0 {
        return Ok(Some(Vec::new()));
    }
    // No retiming helps a single vertex slower than the target.
    if graph.vertex_ids().any(|v| graph.delay(v) > target) {
        return Ok(None);
    }
    let r = if graph.host().is_some() {
        constraint_feasible(graph, target)?
    } else {
        feas_loop(&mut Feas::new(graph), target, vec![0; n])?.0
    };
    if let Some(r) = &r {
        debug_assert!(meets(graph, r, target));
    }
    Ok(r)
}

/// Whether `r` is a legal retiming of `graph` with period `≤ target`.
fn meets(graph: &RetimeGraph, r: &[i64], target: u64) -> bool {
    let w = graph.retimed_weights(r);
    graph.weights_legal(&w) && graph.try_clock_period(&w).is_ok_and(|p| p <= target)
}

/// No predecessor yet: the vertex was never incremented.
const NO_PRED: u32 = u32::MAX;

/// The FEAS oracle (host-free graphs only): the graph's arcs in CSR form
/// and the pass buffers, built once and reused by every probe of a search.
struct Feas<'g> {
    graph: &'g RetimeGraph,
    /// Out-arcs: arc `k` of `v`, for `k` in `start[v]..start[v + 1]`, has
    /// head `head[k]` and weight `base[k]`; `w[k]` is its retimed weight
    /// in the current pass.
    start: Vec<usize>,
    head: Vec<u32>,
    base: Vec<i64>,
    w: Vec<i64>,
    /// Pass buffers: arrivals, critical-path origins, zero-weight
    /// in-degrees, the Kahn queue and the vertices incremented.
    arr: Vec<u64>,
    origin: Vec<u32>,
    indeg: Vec<u32>,
    queue: Vec<u32>,
    bumped: Vec<u32>,
    /// The certificate: each vertex's `pred` (from its last increment)
    /// next to its walk stamp, and `lift`. A stamp `≥` the pass's first
    /// walk marks a vertex this pass already followed.
    pred: Vec<(u32, u32)>,
    lift: Vec<i64>,
    walk: u32,
}

impl<'g> Feas<'g> {
    fn new(graph: &'g RetimeGraph) -> Self {
        debug_assert!(graph.host().is_none(), "FEAS is the host-free oracle");
        let n = graph.num_vertices();
        let mut start = Vec::with_capacity(n + 1);
        let (mut head, mut base) = (Vec::new(), Vec::new());
        start.push(0usize);
        for v in graph.vertex_ids() {
            for e in graph.out_edges(v) {
                let e = graph.edge(e);
                head.push(e.to.0);
                base.push(e.weight);
            }
            start.push(head.len());
        }
        Self {
            graph,
            start,
            w: base.clone(),
            head,
            base,
            arr: vec![0; n],
            origin: vec![0; n],
            indeg: vec![0; n],
            queue: Vec::with_capacity(n),
            bumped: Vec::new(),
            pred: vec![(NO_PRED, 0); n],
            lift: vec![0; n],
            walk: 0,
        }
    }
}

/// The classic FEAS loop (host-free graphs only) from the retiming `r`,
/// returning the retiming (or `None`) and how many arrival passes it ran.
///
/// Each pass computes arrival times over the zero-weight edges and
/// increments every vertex whose arrival exceeds `target`. An increment of
/// `v` records `pred(v) = s`, the first vertex of `v`'s critical
/// zero-weight path `P` (`origin`), and `lift(v) = 1 − w(P)`: every legal
/// retiming `r'` with period `≤ target` must register `P`, so
/// `r'(v) − r'(s) ≥ lift(v)`. A cycle of `pred` pointers sums these around
/// to `0 ≥ Σ lift`, while `Σ lift ≥ 1` (see the debug assertion and
/// ALGORITHMS.md §2): the target is infeasible. A feasible target never
/// closes such a cycle. From any legal `r` it ends at the least feasible
/// retiming `≥ r` within `|V|` passes, so a search may start each probe
/// from the last feasible probe's retiming and still get the cold start's
/// retiming (ALGORITHMS.md §2); the `|V| + 1` pass bound stays as the
/// backstop.
fn feas_loop(
    feas: &mut Feas,
    target: u64,
    mut r: Vec<i64>,
) -> Result<(Option<Vec<i64>>, usize), RetimeError> {
    let Feas {
        graph,
        start,
        head,
        base,
        w,
        arr,
        origin,
        indeg,
        queue,
        bumped,
        pred,
        lift,
        walk,
    } = feas;
    let n = graph.num_vertices();
    pred.iter_mut().for_each(|p| p.0 = NO_PRED);
    // |V| rounds: the classic bound is |V| − 1 increments; one extra round
    // performs the final check.
    for pass in 1..=n + 1 {
        indeg.fill(0);
        for v in 0..n {
            for k in start[v]..start[v + 1] {
                let t = head[k] as usize;
                w[k] = base[k] + r[t] - r[v];
                debug_assert!(w[k] >= 0, "FEAS lost legality");
                if w[k] == 0 {
                    indeg[t] += 1;
                }
            }
        }
        for v in graph.vertex_ids() {
            arr[v.index()] = graph.delay(v);
            origin[v.index()] = v.0;
        }
        queue.clear();
        queue.extend((0..n as u32).filter(|&v| indeg[v as usize] == 0));
        let mut seen = 0usize;
        while let Some(v) = queue.pop() {
            seen += 1;
            let v = v as usize;
            for k in start[v]..start[v + 1] {
                if w[k] != 0 {
                    continue;
                }
                let t = head[k] as usize;
                let cand = arr[v]
                    .checked_add(graph.delay(VertexId(t as u32)))
                    .ok_or(RetimeError::DelayOverflow)?;
                if cand > arr[t] {
                    arr[t] = cand;
                    origin[t] = origin[v];
                }
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push(t as u32);
                }
            }
        }
        if seen < n {
            // Retiming preserves cycle weights, so only the input itself
            // can carry a zero-weight cycle.
            return Err(RetimeError::CombinationalCycle);
        }
        bumped.clear();
        for v in 0..n {
            if arr[v] > target {
                let s = origin[v] as usize;
                pred[v].0 = s as u32;
                // `P` has zero retimed weight: w(P) = r(s) − r(v).
                lift[v] = 1 - (r[s] - r[v]);
                bumped.push(v as u32);
            }
        }
        if bumped.is_empty() {
            return Ok((Some(r), pass));
        }
        for &v in bumped.iter() {
            r[v as usize] += 1;
        }
        // Only the pointers just set can close a new cycle. A walk stops
        // at a vertex an earlier walk of this pass already followed.
        if *walk > u32::MAX - n as u32 {
            pred.iter_mut().for_each(|p| p.1 = 0);
            *walk = 0;
        }
        let pass_start = *walk + 1;
        for &v in bumped.iter() {
            *walk += 1;
            let mut x = v;
            while x != NO_PRED {
                let (next, seen_at) = &mut pred[x as usize];
                if *seen_at == *walk {
                    debug_assert!(cycle_lift(pred, lift, x) > 0, "FEAS certificate");
                    return Ok((None, pass));
                }
                if *seen_at >= pass_start {
                    break;
                }
                *seen_at = *walk;
                x = *next;
            }
        }
    }
    Ok((None, n + 1))
}

/// `Σ lift` around the `pred` cycle through `x`. Along the cycle,
/// `lift(v) = R(v) − r_t(pred(v))`, where `R` is the current retiming and
/// `r_t` the one before `v`'s last increment, so the sum telescopes to
/// `Σ (R(s) − r_t(s)) ≥ 0`; the term whose `s` was incremented last is
/// at least 1.
fn cycle_lift(pred: &[(u32, u32)], lift: &[i64], x: u32) -> i64 {
    let mut sum = lift[x as usize];
    let mut y = pred[x as usize].0;
    while y != x {
        sum += lift[y as usize];
        y = pred[y as usize].0;
    }
    sum
}

/// One-shot feasibility via the W/D constraint system (sound for host
/// graphs).
fn constraint_feasible(graph: &RetimeGraph, target: u64) -> Result<Option<Vec<i64>>, RetimeError> {
    let pc = generate_period_constraints(graph, target)?;
    let mut cons = edge_constraints(graph);
    cons.extend(pc.constraints.iter().copied());
    Ok(DifferenceConstraints::new(graph.num_vertices(), cons).solve())
}

/// The cycle-ratio floor of a host graph's period search,
/// `max(d_max, ⌈λ*⌉)`, with the negative cycle of the search's last
/// infeasible probe (empty when no probe failed, or when the solver's
/// path-length backstop proved it without a cycle).
///
/// A cycle `C` that avoids the host keeps its `w(C)` flip-flops under any
/// retiming, and each of its at most `w(C)` register-free stretches has
/// delay `≤ T`, so `d(C) ≤ T · w(C)` at every feasible period `T`: the
/// floor is at most `T_min`. Lawler's binary search finds the least
/// integer `T` in `[d_max, t_init]` at which no such cycle has
/// `d(C) > T · w(C)`, i.e. at which the constraints
/// `r(head) − r(tail) ≤ T · w(e) − d(tail)`, one per edge off the host,
/// have no negative cycle. `t_init`, the unretimed period, always passes.
/// Probes warm-start from the last feasible one's potentials and never
/// bump `retime.probe`.
///
/// # Errors
///
/// [`RetimeError::DelayOverflow`] when a probe's bound `T · w(e) − d(tail)`
/// overflows `i64`.
fn cycle_ratio_floor(
    graph: &RetimeGraph,
    d_max: u64,
    t_init: u64,
) -> Result<(u64, Vec<Constraint>), RetimeError> {
    let _span = lacr_obs::span!("retime.cycle_ratio", edges = graph.num_edges());
    let host = graph.host();
    let arcs: Vec<_> = graph
        .edges()
        .iter()
        .filter(|e| Some(e.from) != host && Some(e.to) != host)
        .collect();
    let bounds_at = |t: u64| -> Option<Vec<Constraint>> {
        let t = i64::try_from(t).ok()?;
        arcs.iter()
            .map(|e| {
                let bound = t
                    .checked_mul(e.weight)?
                    .checked_sub(i64::try_from(graph.delay(e.from)).ok()?)?;
                Some(Constraint::new(e.to.index(), e.from.index(), bound))
            })
            .collect()
    };
    let (mut lo, mut hi) = (d_max, t_init);
    let mut warm = vec![0; graph.num_vertices()];
    let mut cycle = Vec::new();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let cons = bounds_at(mid).ok_or(RetimeError::DelayOverflow)?;
        match DifferenceConstraints::new(warm.len(), cons).solve_or_cycle(&warm) {
            Ok(r) => {
                warm = r;
                hi = mid;
            }
            Err(c) => {
                cycle = c;
                lo = mid + 1;
            }
        }
    }
    Ok((lo, cycle))
}

/// Whether the cycle of floor constraints `cycle` rules out period `t`,
/// re-derived from the graph alone: each hop `tail → head` takes the
/// fewest flip-flops of any host-avoiding edge between the two, and the
/// cycle must have `d(C) > t · w(C)`.
fn ratio_cycle_rules_out(graph: &RetimeGraph, cycle: &[Constraint], t: u64) -> bool {
    let host = graph.host();
    let (mut delay, mut flops) = (0i128, 0i128);
    for c in cycle {
        let (tail, head) = (VertexId(c.v as u32), VertexId(c.u as u32));
        let hop = graph
            .out_edges(tail)
            .map(|e| graph.edge(e))
            .filter(|e| e.to == head && Some(tail) != host && Some(head) != host)
            .map(|e| e.weight)
            .min();
        let Some(w) = hop else {
            return false;
        };
        delay += i128::from(graph.delay(tail));
        flops += i128::from(w);
    }
    delay > i128::from(t) * flops
}

/// The incremental constraint oracle: one substrate for the search
/// bracket `[floor, T_init]` (the cycle-ratio floor), warm-started
/// Bellman–Ford across probes. The substrate's `pairs_before_pruning`
/// counts the pairs violating at that floor.
struct SubstrateOracle<'g> {
    graph: &'g RetimeGraph,
    band_lo: u64,
    band_hi: u64,
    substrate: Option<WdSubstrate>,
    edge_cons: Vec<Constraint>,
    /// Potentials of the last feasible probe — the warm start. Probes walk
    /// a shrinking bracket, so consecutive constraint sets differ by a few
    /// tightened rows and the previous solution nearly satisfies the next
    /// system (see [`DifferenceConstraints::solve_warm`] for soundness).
    prev: Option<Vec<i64>>,
}

impl<'g> SubstrateOracle<'g> {
    fn new(graph: &'g RetimeGraph, band_lo: u64, band_hi: u64) -> Self {
        Self {
            graph,
            band_lo,
            band_hi,
            substrate: None,
            edge_cons: edge_constraints(graph),
            prev: None,
        }
    }

    /// Probes feasibility of `target`, building the substrate on first
    /// use. Counter contract: every probe bumps `retime.probe`; probes
    /// served from an already-built substrate bump `retime.wd_cache_hits`,
    /// so within one `retime.min_period` span
    /// `Σ retime.probe == Σ retime.wd_cache_hits + #(retime.wd_build)`.
    fn probe(&mut self, target: u64) -> Result<Option<Vec<i64>>, RetimeError> {
        lacr_obs::counter!("retime.probe", 1);
        if self.substrate.is_some() {
            lacr_obs::counter!("retime.wd_cache_hits", 1);
        } else {
            self.substrate = Some(WdSubstrate::build(self.graph, self.band_lo, self.band_hi)?);
        }
        let pc = self
            .substrate
            .as_ref()
            .expect("substrate built above")
            .constraints_for(target);
        let mut cons = self.edge_cons.clone();
        cons.extend(pc.constraints);
        let sys = DifferenceConstraints::new(self.graph.num_vertices(), cons);
        let sol = match &self.prev {
            Some(p) => sys.solve_warm(p),
            None => sys.solve(),
        };
        if let Some(r) = &sol {
            debug_assert!(meets(self.graph, r, target));
            self.prev = Some(r.clone());
        }
        Ok(sol)
    }
}

/// The feasibility oracle of one search.
enum Oracle<'g> {
    /// Host graphs: W/D constraints from one substrate.
    Constraints(SubstrateOracle<'g>),
    /// Host-free graphs: FEAS from the last feasible probe's retiming
    /// (which is at or below the least feasible retiming of every lower
    /// target, so each probe returns its cold-start retiming).
    Feas { feas: Feas<'g>, warm: Vec<i64> },
}

impl Oracle<'_> {
    fn probe(&mut self, target: u64) -> Result<Option<Vec<i64>>, RetimeError> {
        match self {
            Oracle::Constraints(oracle) => oracle.probe(target),
            Oracle::Feas { feas, warm } => {
                let r = feas_loop(feas, target, warm.clone())?.0;
                if let Some(r) = &r {
                    debug_assert!(meets(feas.graph, r, target));
                    warm.clone_from(r);
                }
                Ok(r)
            }
        }
    }
}

/// Computes the minimum feasible clock period and a retiming achieving
/// it, returning the search's W/D substrate for reuse.
///
/// Binary-searches integer periods between a floor no retiming can beat
/// and the unretimed period. The floor is the largest single-vertex delay
/// on host-free graphs; on host graphs it is raised to the host-avoiding
/// cycle-ratio bound `⌈λ*⌉` when that is larger. Either floor is probed
/// first. A positive `tolerance_ps` stops the search once the bracket
/// `[infeasible, feasible]` is narrower than it, returning the feasible
/// end after one final downward probe at the bracket floor. The result
/// is at most `tolerance_ps` above the true optimum — and *exact*
/// whenever the floor itself is feasible, whatever the tolerance.
///
/// # Errors
///
/// * [`RetimeError::CombinationalCycle`] — some directed cycle carries no
///   flip-flop (the unretimed period is undefined).
/// * [`RetimeError::DelayOverflow`] — path-delay accumulation overflowed
///   `u64`, or a cycle-ratio bound `T · w(e) − d` overflowed `i64`.
pub fn try_min_period_retiming(
    graph: &RetimeGraph,
    tolerance_ps: u64,
) -> Result<MinPeriodOutcome, RetimeError> {
    let n = graph.num_vertices();
    if n == 0 {
        return Ok(MinPeriodOutcome {
            result: MinPeriodResult {
                period: 0,
                retiming: Vec::new(),
            },
            substrate: None,
        });
    }
    let _span = lacr_obs::span!(
        "retime.min_period",
        vertices = n,
        tolerance_ps = tolerance_ps,
    );
    let start = graph.try_clock_period(&graph.weights())?;
    let d_max = graph
        .vertex_ids()
        .map(|v| graph.delay(v))
        .max()
        .unwrap_or(0);
    let host = graph.host().is_some();
    let (floor, ratio_cycle) = if host {
        cycle_ratio_floor(graph, d_max, start)?
    } else {
        (d_max, Vec::new())
    };
    let (mut lo, mut hi) = (floor, start);
    let mut best = (hi, vec![0i64; n]);
    // One oracle serves every probe of the search. On host graphs its
    // substrate covers [floor, start]: every candidate lies there and the
    // bracket only shrinks.
    let mut oracle = if host {
        Oracle::Constraints(SubstrateOracle::new(graph, floor, start))
    } else {
        Oracle::Feas {
            feas: Feas::new(graph),
            warm: vec![0; n],
        }
    };
    if lo < hi {
        // The floor is often the optimum: a raised one on s838, s1269 and
        // s1423 of Table 1, `d_max` on every pipelined mesh. Probe it
        // first.
        match oracle.probe(lo)? {
            Some(r) => {
                best = (lo, r);
                hi = lo;
            }
            None => lo += 1,
        }
    }
    while lo < hi && hi - lo > tolerance_ps {
        let mid = lo + (hi - lo) / 2;
        match oracle.probe(mid)? {
            Some(r) => {
                best = (mid, r);
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    // Final downward probe at the bracket floor. With tolerance 0 the
    // loop above ends with lo == hi == best.0; with a positive tolerance
    // the bracket may stop wide, and its floor is the only candidate that
    // can still beat `best` exactly — probe it whenever it is strictly
    // better.
    if lo < best.0 {
        if let Some(r) = oracle.probe(lo)? {
            best = (lo, r);
        }
    }
    // A tight raised floor is certified by the graph alone: the cycle
    // Lawler's search found at `floor − 1` rules that period out.
    debug_assert!(
        best.0 != floor
            || floor == d_max
            || ratio_cycle.is_empty()
            || ratio_cycle_rules_out(graph, &ratio_cycle, floor - 1),
        "cycle {ratio_cycle:?} does not rule out period {}",
        floor - 1
    );
    let substrate = match oracle {
        Oracle::Constraints(oracle) => oracle.substrate,
        Oracle::Feas { .. } => None,
    };
    Ok(MinPeriodOutcome {
        result: MinPeriodResult {
            period: best.0,
            retiming: best.1,
        },
        substrate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VertexKind;
    use lacr_prng::Rng;

    fn two_vertex_loop() -> RetimeGraph {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 2);
        g
    }

    #[test]
    fn feas_balances_two_vertex_loop() {
        let g = two_vertex_loop();
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 5);
        let w = g.retimed_weights(&res.retiming);
        assert_eq!(g.try_clock_period(&w), Ok(5));
    }

    #[test]
    fn feas_rejects_sub_delay_target() {
        let g = two_vertex_loop();
        assert!(try_feasible_retiming(&g, 4).unwrap().is_none());
    }

    #[test]
    fn min_period_of_already_optimal_is_identity_grade() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 3, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 3, 1.0, None);
        g.add_edge(a, b, 1);
        g.add_edge(b, a, 1);
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 3);
    }

    #[test]
    fn min_period_bounded_by_cycle_ratio() {
        // Cycle of 4 vertices, delays 2 each, 2 flops total: the max
        // delay-to-register ratio forces period ≥ ceil(8 / 2) = 4.
        let mut g = RetimeGraph::new();
        let vs: Vec<_> = (0..4)
            .map(|_| g.add_vertex(VertexKind::Functional, 2, 1.0, None))
            .collect();
        g.add_edge(vs[0], vs[1], 2);
        g.add_edge(vs[1], vs[2], 0);
        g.add_edge(vs[2], vs[3], 0);
        g.add_edge(vs[3], vs[0], 0);
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 4);
    }

    #[test]
    fn pipeline_with_host_keeps_latency() {
        // host --2--> a --0--> b --0--> host, d(a)=d(b)=5.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        g.add_edge(h, a, 2);
        g.add_edge(a, b, 0);
        g.add_edge(b, h, 0);
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 5);
        let w = g.retimed_weights(&res.retiming);
        // Retiming preserves the h→a→b→h path-weight sum because both
        // endpoints are the host.
        assert_eq!(w.iter().sum::<i64>(), 2);
    }

    #[test]
    fn pipeline_without_a_host_avoiding_cycle_keeps_the_delay_floor() {
        // host --2--> a --0--> b --0--> host: every cycle runs through the
        // host, so λ* bounds nothing and the floor is the largest delay.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 3, 1.0, None);
        g.add_edge(h, a, 2);
        g.add_edge(a, b, 0);
        g.add_edge(b, h, 0);
        assert_eq!(cycle_ratio_floor(&g, 5, 8).unwrap(), (5, Vec::new()));
        assert_eq!(try_min_period_retiming(&g, 0).unwrap().result.period, 5);
    }

    #[test]
    fn combinational_io_path_bounds_period() {
        // host →0→ a →0→ b →0→ host with d(a) + d(b) = 9: no register may
        // be inserted without changing I/O latency, so the min period is 9
        // even though the registered loop b →2→ a alone would allow 5 (its
        // cycle ratio 9 / 2, below d(b)): the floor sits under T_min.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        g.add_edge(h, a, 0);
        g.add_edge(a, b, 0);
        g.add_edge(b, h, 0);
        g.add_edge(b, a, 2);
        let (floor, _) = cycle_ratio_floor(&g, 5, 9).unwrap();
        assert_eq!(floor, 5);
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 9);
        assert!(try_feasible_retiming(&g, 8).unwrap().is_none());
    }

    #[test]
    fn tight_cycle_ratio_floor_is_the_optimum_and_certified() {
        // host →1→ a, a →0→ b →0→ c →1→ d →1→ a, d →1→ host, every delay
        // 3: the loop carries two flip-flops over delay 12, so no period
        // below 6 exists, and 6 splits it evenly. The unretimed period is
        // 9 (a → b → c), and the search needs one probe, at the floor.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let vs: Vec<_> = (0..4)
            .map(|_| g.add_vertex(VertexKind::Functional, 3, 1.0, None))
            .collect();
        g.add_edge(h, vs[0], 1);
        for (i, w) in [0, 0, 1, 1].into_iter().enumerate() {
            g.add_edge(vs[i], vs[(i + 1) % 4], w);
        }
        g.add_edge(vs[3], h, 1);
        let (floor, cycle) = cycle_ratio_floor(&g, 3, 9).unwrap();
        assert_eq!(floor, 6);
        assert!(ratio_cycle_rules_out(&g, &cycle, 5));
        assert!(!ratio_cycle_rules_out(&g, &cycle, 6));
        let out = try_min_period_retiming(&g, 0).unwrap();
        assert_eq!(out.result.period, 6);
        assert_eq!(out.substrate.expect("probed").bracket(), (6, 9));
    }

    #[test]
    fn cycle_ratio_bound_overflow_is_a_typed_error() {
        // The loop a ⇄ b carries i64::MAX / 2 flip-flops: T · w(e)
        // overflows i64 at every probe above 2.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        g.add_edge(h, a, 1);
        g.add_edge(a, b, 0);
        g.add_edge(b, a, i64::MAX / 2);
        g.add_edge(b, h, 0);
        assert_eq!(
            try_min_period_retiming(&g, 0).map(|out| out.result.period),
            Err(RetimeError::DelayOverflow)
        );
    }

    #[test]
    fn host_graph_with_io_registers_can_pipeline() {
        // host →1→ a →0→ b →1→ host: the two I/O registers can slide
        // inward to cut the a→b path.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
        g.add_edge(h, a, 1);
        g.add_edge(a, b, 0);
        g.add_edge(b, h, 1);
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 4);
    }

    #[test]
    fn empty_graph() {
        let g = RetimeGraph::new();
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 0);
    }

    #[test]
    fn single_vertex_self_loop() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 7, 1.0, None);
        g.add_edge(a, a, 1);
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 7);
    }

    /// Regression (issue 6 satellite): with a positive tolerance and the
    /// optimum sitting exactly at the bracket floor, the search used to
    /// return the last feasible *midpoint* instead of probing the floor —
    /// the final downward probe was gated on `tolerance_ps == 0`.
    #[test]
    fn positive_tolerance_still_probes_the_bracket_floor() {
        // two_vertex_loop: unretimed period 10, max single delay 5, and 5
        // is feasible — the optimum is exactly the floor. A tolerance as
        // wide as the initial bracket means the loop body never runs.
        let g = two_vertex_loop();
        for tol in [1, 3, 5, 10, 100] {
            let res = try_min_period_retiming(&g, tol).unwrap().result;
            assert_eq!(res.period, 5, "tolerance {tol}");
            let w = g.retimed_weights(&res.retiming);
            assert_eq!(g.try_clock_period(&w), Ok(5), "tolerance {tol}");
        }
    }

    /// The substrate returned by the checked entry point covers the whole
    /// search bracket on host graphs, and matches one-shot generation.
    #[test]
    fn outcome_substrate_covers_bracket_and_matches_one_shot() {
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        g.add_edge(h, a, 2);
        g.add_edge(a, b, 0);
        g.add_edge(b, h, 0);
        let out = try_min_period_retiming(&g, 0).unwrap();
        assert_eq!(out.result.period, 5);
        let sub = out.substrate.expect("host search builds a substrate");
        let (lo, hi) = sub.bracket();
        // No cycle avoids the host, so the floor is the largest delay.
        assert_eq!((lo, hi), (5, 10), "bracket [floor, unretimed]");
        for t in lo..=hi {
            let probe = sub.constraints_for(t);
            let fresh = generate_period_constraints(&g, t).unwrap();
            assert_eq!(probe.constraints, fresh.constraints, "t={t}");
        }
    }

    /// Host-free graphs take the FEAS path and return no substrate.
    #[test]
    fn host_free_search_returns_no_substrate() {
        let g = two_vertex_loop();
        let out = try_min_period_retiming(&g, 0).unwrap();
        assert_eq!(out.result.period, 5);
        assert!(out.substrate.is_none());
    }

    /// The host-free search, which probes its `d_max` floor first, finds
    /// on random small graphs the least target brute force finds
    /// feasible, and the retiming a cold FEAS run returns at that target.
    /// Registered back edges keep the graphs valid; forward edges may be
    /// combinational, so some floors are the optimum and some are not.
    #[test]
    fn host_free_search_matches_brute_force_and_a_cold_feas_run() {
        let mut rng = Rng::seed_from_u64(2003);
        let (mut floor_optimal, mut floor_infeasible) = (0, 0);
        for case in 0..60 {
            let n = rng.gen_range(2..5usize);
            let mut g = RetimeGraph::new();
            let vs: Vec<_> = (0..n)
                .map(|_| g.add_vertex(VertexKind::Functional, rng.gen_range(1..9u64), 1.0, None))
                .collect();
            for _ in 0..rng.gen_range(1..2 * n) {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                let w = if a < b {
                    rng.gen_range(0..3i64)
                } else {
                    rng.gen_range(1..3i64)
                };
                g.add_edge(vs[a], vs[b], w);
            }
            let unretimed = g.try_clock_period(&g.weights()).expect("valid circuit");
            let d_max = g.vertex_ids().map(|v| g.delay(v)).max().expect("non-empty");
            let brute = (d_max..=unretimed)
                .find(|&t| brute_force_feasible(&g, t))
                .expect("the unretimed period is feasible");
            let res = try_min_period_retiming(&g, 0).unwrap().result;
            assert_eq!(res.period, brute, "case {case}: {g:?}");
            let (cold, _) = feas_loop(&mut Feas::new(&g), brute, vec![0; n]).unwrap();
            assert_eq!(Some(res.retiming), cold, "case {case}: {g:?}");
            if brute == d_max {
                floor_optimal += 1;
            } else {
                floor_infeasible += 1;
            }
        }
        assert!(floor_optimal > 0 && floor_infeasible > 0);
    }

    /// Reference check on random small graphs: FEAS feasibility must agree
    /// with a brute-force search over retiming vectors in a small box.
    #[test]
    fn feas_agrees_with_brute_force_on_random_graphs() {
        let mut rng = Rng::seed_from_u64(42);
        for case in 0..40 {
            let n = rng.gen_range(2..5usize);
            let mut g = RetimeGraph::new();
            let vs: Vec<_> = (0..n)
                .map(|_| g.add_vertex(VertexKind::Functional, rng.gen_range(1..6), 1.0, None))
                .collect();
            // Ring to guarantee every vertex is on a registered cycle.
            for i in 0..n {
                g.add_edge(vs[i], vs[(i + 1) % n], 1);
            }
            for _ in 0..rng.gen_range(0..4) {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                g.add_edge(vs[a], vs[b], rng.gen_range(1..3));
            }
            let unretimed = g.try_clock_period(&g.weights()).expect("valid");
            for t in 1..=unretimed {
                let feas = try_feasible_retiming(&g, t).unwrap().is_some();
                let brute = brute_force_feasible(&g, t);
                assert_eq!(feas, brute, "case {case}: target {t}");
            }
        }
    }

    /// The two oracles agree on random *host* graphs (the constraint
    /// oracle versus brute force).
    #[test]
    fn constraint_oracle_agrees_with_brute_force_on_host_graphs() {
        let mut rng = Rng::seed_from_u64(99);
        for case in 0..30 {
            let n = rng.gen_range(2..4usize);
            let mut g = RetimeGraph::new();
            let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
            g.set_host(h);
            let vs: Vec<_> = (0..n)
                .map(|_| g.add_vertex(VertexKind::Functional, rng.gen_range(1..5), 1.0, None))
                .collect();
            g.add_edge(h, vs[0], rng.gen_range(0..3));
            for i in 0..n - 1 {
                g.add_edge(vs[i], vs[i + 1], rng.gen_range(0..2));
            }
            g.add_edge(vs[n - 1], h, rng.gen_range(0..2));
            let unretimed = g.try_clock_period(&g.weights()).expect("valid");
            for t in 1..=unretimed {
                let feas = try_feasible_retiming(&g, t).unwrap().is_some();
                let brute = brute_force_feasible(&g, t);
                assert_eq!(feas, brute, "case {case}: target {t}, graph {g:?}");
            }
        }
    }

    lacr_prng::properties! {
        cases = 40;

        /// The incremental substrate-backed search (warm starts, cached
        /// W/D) must find the same minimum period as a slow reference
        /// oracle that re-derives feasibility from scratch — linear scan
        /// over every candidate period with a cold one-shot constraint
        /// system per candidate. Replayable via `LACR_PROP_REPLAY`.
        fn min_period_matches_slow_reference_oracle(rng) {
            let n = rng.gen_range(2..16usize);
            let mut g = RetimeGraph::new();
            let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
            g.set_host(h);
            let vs: Vec<_> = (0..n)
                .map(|_| g.add_vertex(VertexKind::Functional, rng.gen_range(1..8u64), 1.0, None))
                .collect();
            // Registered I/O ring plus random internal wiring.
            g.add_edge(h, vs[0], rng.gen_range(1..3i64));
            for i in 0..n - 1 {
                g.add_edge(vs[i], vs[i + 1], rng.gen_range(0..2i64));
            }
            g.add_edge(vs[n - 1], h, rng.gen_range(0..2i64));
            for _ in 0..rng.gen_range(0..2 * n) {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b {
                    let w = if a < b { rng.gen_range(0..2i64) } else { rng.gen_range(1..3i64) };
                    g.add_edge(vs[a], vs[b], w);
                }
            }
            let fast = try_min_period_retiming(&g, 0).unwrap().result.period;
            // Slow oracle: smallest T whose cold constraint system is
            // feasible (scanning up from the max single-vertex delay).
            let unretimed = g.try_clock_period(&g.weights()).expect("valid circuit");
            let d_max = g.vertex_ids().map(|v| g.delay(v)).max().unwrap();
            let slow = (d_max..=unretimed)
                .find(|&t| {
                    let pc = generate_period_constraints(&g, t).unwrap();
                    let mut cons = edge_constraints(&g);
                    cons.extend(pc.constraints.iter().copied());
                    DifferenceConstraints::new(g.num_vertices(), cons).is_feasible()
                })
                .expect("unretimed period is always feasible");
            lacr_prng::prop_assert_eq!(fast, slow);
            // The cycle-ratio floor never overshoots, and a raised one
            // carries a cycle that rules out the period below it.
            let (floor, cycle) = cycle_ratio_floor(&g, d_max, unretimed).unwrap();
            lacr_prng::prop_assert!(floor <= slow, "floor {floor} > T_min {slow}");
            lacr_prng::prop_assert!(
                floor == d_max || ratio_cycle_rules_out(&g, &cycle, floor - 1),
                "floor {floor}: cycle {cycle:?}"
            );
        }
    }

    lacr_prng::properties! {
        cases = 48;

        /// FEAS, with its early exit, gives the verdict of the one-shot W/D +
        /// Bellman–Ford oracle at every target of the search bracket, every
        /// retiming it returns verifies independently, and FEAS started
        /// from the retiming of the next higher feasible target returns
        /// the cold start's retiming.
        fn feas_verdict_matches_the_constraint_oracle(rng) {
            let n = rng.gen_range(2..41usize);
            let mut g = RetimeGraph::new();
            let vs: Vec<_> = (0..n)
                .map(|_| g.add_vertex(VertexKind::Functional, rng.gen_range(1..9u64), 1.0, None))
                .collect();
            // A registered ring plus chords: forward chords may be
            // combinational, backward ones carry a register.
            for i in 0..n {
                let w = if i + 1 == n { rng.gen_range(1..3i64) } else { rng.gen_range(0..3i64) };
                g.add_edge(vs[i], vs[(i + 1) % n], w);
            }
            for _ in 0..rng.gen_range(0..n) {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                let w = if a < b { rng.gen_range(0..3i64) } else { rng.gen_range(1..3i64) };
                g.add_edge(vs[a], vs[b], w);
            }
            let unretimed = g.try_clock_period(&g.weights()).expect("valid circuit");
            let floor = g.vertex_ids().map(|v| g.delay(v)).max().expect("non-empty");
            let mut search = Feas::new(&g);
            let mut warm = vec![0; n];
            for t in (floor..=unretimed).rev() {
                let feas = try_feasible_retiming(&g, t).unwrap();
                let (from_warm, _) = feas_loop(&mut search, t, warm.clone()).unwrap();
                lacr_prng::prop_assert!(from_warm == feas, "target {t}: warm start differs");
                if let Some(r) = &feas {
                    warm.clone_from(r);
                }
                let oracle = constraint_feasible(&g, t).unwrap();
                lacr_prng::prop_assert!(
                    feas.is_some() == oracle.is_some(),
                    "target {t}: FEAS {}, oracle {}",
                    feas.is_some(),
                    oracle.is_some()
                );
                if let Some(r) = feas {
                    let weights = g.retimed_weights(&r);
                    let out = crate::RetimingOutcome {
                        total_flops: weights.iter().sum(),
                        period: g.try_clock_period(&weights).unwrap(),
                        retiming: r,
                        weights,
                    };
                    let verdict = crate::verify_retiming(&g, &out, t);
                    lacr_prng::prop_assert!(verdict.is_ok(), "target {t}: {verdict:?}");
                }
            }
        }
    }

    /// An infeasible probe just below `T_min` on a 4,096-cell ring of
    /// rings ends at its predecessor-cycle certificate, not after the
    /// `|V| + 1` passes of the classic bound.
    #[test]
    fn infeasible_ring_probe_ends_at_the_certificate() {
        let net = lacr_prng::synth::ring_of_rings(4096, 2003);
        let mut g = RetimeGraph::new();
        let ids: Vec<_> = net
            .delays_ps
            .iter()
            .map(|&d| g.add_vertex(VertexKind::Functional, d, 1.0, None))
            .collect();
        for e in &net.edges {
            g.add_edge(ids[e.from as usize], ids[e.to as usize], i64::from(e.flops));
        }
        let t_min = try_min_period_retiming(&g, 0).unwrap().result.period;
        let floor = g.vertex_ids().map(|v| g.delay(v)).max().unwrap();
        assert!(
            t_min > floor,
            "the probe must run FEAS, not the delay check"
        );
        let mut feas = Feas::new(&g);
        let (r, passes) = feas_loop(&mut feas, t_min - 1, vec![0; g.num_vertices()]).unwrap();
        assert!(r.is_none());
        assert!(passes <= 64, "{passes} passes at T_min − 1");
        let (r, _) = feas_loop(&mut feas, t_min, vec![0; g.num_vertices()]).unwrap();
        assert!(r.is_some());
    }

    #[test]
    fn zero_weight_cycle_is_a_typed_error() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 0);
        assert_eq!(
            try_feasible_retiming(&g, 5),
            Err(RetimeError::CombinationalCycle)
        );
    }

    fn brute_force_feasible(g: &RetimeGraph, t: u64) -> bool {
        // Search r ∈ [−4, 4]^(n−1) with r[0] = 0 (differences matter).
        let n = g.num_vertices();
        let mut r = vec![0i64; n];
        fn rec(g: &RetimeGraph, t: u64, r: &mut Vec<i64>, i: usize) -> bool {
            if i == r.len() {
                let w = g.retimed_weights(r);
                return g.weights_legal(&w) && matches!(g.try_clock_period(&w), Ok(p) if p <= t);
            }
            for v in -4..=4 {
                r[i] = v;
                if rec(g, t, r, i + 1) {
                    return true;
                }
            }
            r[i] = 0;
            false
        }
        rec(g, t, &mut r, 1)
    }
}
