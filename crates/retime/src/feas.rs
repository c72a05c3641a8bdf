//! Min-period retiming: binary search over integer candidate periods with
//! one feasibility oracle, the Leiserson–Saxe **FEAS** relaxation.
//!
//! Each pass computes arrival times over the zero-weight edges and raises
//! every vertex whose arrival exceeds the target by one. On a graph with a
//! host vertex, zero-weight edges into the host carry no arrival, as in
//! [`RetimeGraph::try_arrival_times`], so raising a primary-output driver
//! can drive its edge into the host negative; a **legality closure** then
//! raises the head of each negative edge until none is left. An infeasible
//! target ends as soon as the raises' predecessor graph closes a cycle, a
//! certificate that no retiming meets it; a feasible one ends at the least
//! non-negative retiming that meets it (see `feas_loop` and ALGORITHMS.md
//! §2). Each probe of a search starts from the last feasible probe's
//! retiming and reuses one arc CSR.
//!
//! Every search probes its floor first, the largest single-vertex delay
//! `d_max` (the optimum of every host-free DAG, such as the pipelined
//! mesh). A feasible floor ends the search; an infeasible one ends at its
//! cycle certificate, and the binary search goes on above it. The
//! returned retiming does not depend on the probe order: FEAS from any
//! start at or below the least feasible retiming ends there.
//!
//! No probe builds the W/D system. A caller that needs the period
//! constraints builds them once, at the target it plans for, with
//! [`generate_period_constraints`](crate::generate_period_constraints).

use crate::graph::{RetimeGraph, VertexId};
use crate::minarea::RetimeError;

/// The minimum period found by [`try_min_period_retiming`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinPeriodResult {
    /// The minimum feasible clock period (integer picoseconds).
    pub period: u64,
    /// A retiming vector achieving it.
    pub retiming: Vec<i64>,
}

/// Result of [`try_min_period_retiming`].
#[derive(Debug, Clone)]
pub struct MinPeriodOutcome {
    /// The minimum feasible period and a retiming achieving it.
    pub result: MinPeriodResult,
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
    let r = feas_loop(&mut Feas::new(graph), target, vec![0; n])?.0;
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

/// No predecessor yet: the vertex was never raised.
const NO_PRED: u32 = u32::MAX;

/// The FEAS oracle: the graph's arcs in CSR form and the pass buffers,
/// built once and reused by every probe of a search.
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
    /// in-degrees, the Kahn queue and the vertices raised.
    arr: Vec<u64>,
    origin: Vec<u32>,
    indeg: Vec<u32>,
    queue: Vec<u32>,
    raised: Vec<u32>,
    /// The certificate: each vertex's `pred` (from its last raise) next
    /// to its walk stamp, and `lift`. A stamp `≥` the pass's first walk
    /// marks a vertex this pass already followed.
    pred: Vec<(u32, u32)>,
    lift: Vec<i64>,
    walk: u32,
}

impl<'g> Feas<'g> {
    fn new(graph: &'g RetimeGraph) -> Self {
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
            raised: Vec::new(),
            pred: vec![(NO_PRED, 0); n],
            lift: vec![0; n],
            walk: 0,
        }
    }
}

/// The FEAS loop from the non-negative retiming `r`, returning the
/// retiming (or `None`) and how many arrival passes it ran.
///
/// Each pass computes arrival times over the zero-weight edges, except
/// those into the host, which carry no arrival (as in
/// [`RetimeGraph::try_arrival_times`]). It raises every vertex whose
/// arrival exceeds `target` by one. A raise of `v` records `pred(v) = s`,
/// the first vertex of `v`'s critical zero-weight path `P` (`origin`),
/// and `lift(v) = 1 − w(P)`: every legal retiming `r'` with period
/// `≤ target` must register `P`, so `r'(v) − r'(s) ≥ lift(v)`. Raising a
/// primary-output driver can drive its edge into the host negative, so
/// the **legality closure** then raises the head of each negative edge
/// `e = tail → head` to `r(tail) − w(e)`, recording `pred = tail` and
/// `lift = −w(e)`, until no edge is negative; legality gives
/// `r'(head) − r'(tail) ≥ −w(e)`. (On a host-free graph no edge goes
/// negative.)
///
/// Every raise is forced by one of these constraints, so no iterate
/// exceeds the least non-negative feasible retiming, and a pass that
/// raises nothing returns exactly that retiming; a search may therefore
/// start each probe from the last feasible probe's retiming and still get
/// the cold start's. A cycle of `pred` pointers sums the constraints
/// around to `0 ≥ Σ lift`, while `Σ lift ≥ 1` (see the debug assertion):
/// the target is infeasible. A feasible target ends within
/// `Σ (r* − r) + 1` passes, and an infeasible one always closes such a
/// cycle, so the loop needs no pass bound (proofs in ALGORITHMS.md §2).
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
        raised,
        pred,
        lift,
        walk,
    } = feas;
    let n = graph.num_vertices();
    let host = graph.host().map_or(usize::MAX, VertexId::index);
    pred.iter_mut().for_each(|p| p.0 = NO_PRED);
    let mut pass = 0;
    loop {
        pass += 1;
        indeg.fill(0);
        for v in 0..n {
            for k in start[v]..start[v + 1] {
                let t = head[k] as usize;
                w[k] = base[k] + r[t] - r[v];
                debug_assert!(w[k] >= 0, "FEAS lost legality");
                if w[k] == 0 && t != host {
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
                let t = head[k] as usize;
                if w[k] != 0 || t == host {
                    continue;
                }
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
        raised.clear();
        for v in 0..n {
            if arr[v] > target {
                let s = origin[v] as usize;
                pred[v].0 = s as u32;
                // `P` has zero retimed weight: w(P) = r(s) − r(v).
                lift[v] = 1 - (r[s] - r[v]);
                raised.push(v as u32);
            }
        }
        if raised.is_empty() {
            return Ok((Some(r), pass));
        }
        for &v in raised.iter() {
            r[v as usize] += 1;
        }
        // The legality closure. A zero-weight edge out of a violating
        // vertex has a violating head unless it enters the host, so the
        // violation raises can only have driven edges into the host
        // negative; after that, only the out-arcs of a vertex the closure
        // raised. `raised` doubles as the work queue.
        let mut next = raised.len();
        if host != usize::MAX {
            let before = r[host];
            for e in graph.in_edges(VertexId(host as u32)).map(|e| graph.edge(e)) {
                let tail = e.from.index();
                if r[host] < r[tail] - e.weight {
                    r[host] = r[tail] - e.weight;
                    pred[host].0 = tail as u32;
                    lift[host] = -e.weight;
                }
            }
            if r[host] > before {
                raised.push(host as u32);
            }
        }
        while let Some(&x) = raised.get(next) {
            next += 1;
            let x = x as usize;
            for k in start[x]..start[x + 1] {
                let t = head[k] as usize;
                if r[t] < r[x] - base[k] {
                    r[t] = r[x] - base[k];
                    pred[t].0 = x as u32;
                    lift[t] = -base[k];
                    raised.push(t as u32);
                }
            }
        }
        // Only the pointers just set can close a new cycle. A walk stops
        // at a vertex an earlier walk of this pass already followed.
        if u64::from(*walk) + raised.len() as u64 >= u64::from(u32::MAX) {
            pred.iter_mut().for_each(|p| p.1 = 0);
            *walk = 0;
        }
        let pass_start = *walk + 1;
        for &v in raised.iter() {
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
}

/// `Σ lift` around the `pred` cycle through `x`. Along the cycle, every
/// raise was tight when set, `lift(v) = R(v) − r_t(pred(v))`, where `R`
/// is the current retiming and `r_t` the one the raise of `v` read, so
/// the sum telescopes to `Σ (R(s) − r_t(s)) ≥ 0`; the term of the member
/// raised last is at least 1.
fn cycle_lift(pred: &[(u32, u32)], lift: &[i64], x: u32) -> i64 {
    let mut sum = lift[x as usize];
    let mut y = pred[x as usize].0;
    while y != x {
        sum += lift[y as usize];
        y = pred[y as usize].0;
    }
    sum
}

/// Computes the minimum feasible clock period and a retiming achieving
/// it.
///
/// Binary-searches integer periods between the largest single-vertex
/// delay, which no retiming can beat and which is probed first, and the
/// unretimed period. Every probe runs FEAS from the last feasible probe's
/// retiming and bumps `retime.probe`. A positive `tolerance_ps` stops the
/// search once the bracket `[infeasible, feasible]` is narrower than it,
/// returning the feasible end after one final downward probe at the
/// bracket floor. The result is at most `tolerance_ps` above the true
/// optimum — and *exact* whenever the floor itself is feasible, whatever
/// the tolerance.
///
/// # Errors
///
/// * [`RetimeError::CombinationalCycle`] — some directed cycle carries no
///   flip-flop (the unretimed period is undefined).
/// * [`RetimeError::DelayOverflow`] — path-delay accumulation overflowed
///   `u64`.
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
    let (mut lo, mut hi) = (d_max, start);
    // `best.1` is the last feasible probe's retiming (the identity at the
    // unretimed period): at or below the least feasible retiming of every
    // lower target, so each probe starting there returns its cold-start
    // retiming.
    let mut best = (hi, vec![0i64; n]);
    let mut feas = Feas::new(graph);
    let mut probe = |target: u64, warm: &[i64]| -> Result<Option<Vec<i64>>, RetimeError> {
        lacr_obs::counter!("retime.probe", 1);
        let r = feas_loop(&mut feas, target, warm.to_vec())?.0;
        if let Some(r) = &r {
            debug_assert!(meets(graph, r, target));
        }
        Ok(r)
    };
    if lo < hi {
        // The floor is often the optimum (`d_max` on every pipelined
        // mesh). Probe it first.
        match probe(lo, &best.1)? {
            Some(r) => {
                best = (lo, r);
                hi = lo;
            }
            None => lo += 1,
        }
    }
    while lo < hi && hi - lo > tolerance_ps {
        let mid = lo + (hi - lo) / 2;
        match probe(mid, &best.1)? {
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
        if let Some(r) = probe(lo, &best.1)? {
            best = (lo, r);
        }
    }
    Ok(MinPeriodOutcome {
        result: MinPeriodResult {
            period: best.0,
            retiming: best.1,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{edge_constraints, generate_period_constraints};
    use crate::graph::VertexKind;
    use lacr_mcmf::DifferenceConstraints;
    use lacr_prng::Rng;

    fn two_vertex_loop() -> RetimeGraph {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 2);
        g
    }

    /// The reference oracle: the W/D period constraints at `t` plus the
    /// edge constraints, solved by Bellman–Ford.
    fn wd_feasible(g: &RetimeGraph, t: u64) -> bool {
        let mut cons = edge_constraints(g);
        cons.extend(generate_period_constraints(g, t).unwrap().constraints);
        DifferenceConstraints::new(g.num_vertices(), cons).is_feasible()
    }

    /// A host graph: `n` functional vertices on a chain, registered back
    /// chords, random forward chords, and random primary inputs and
    /// outputs through the host (vertex 0).
    fn random_host_graph(rng: &mut Rng, n: usize, max_delay: u64) -> RetimeGraph {
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let vs: Vec<_> = (0..n)
            .map(|_| {
                g.add_vertex(
                    VertexKind::Functional,
                    rng.gen_range(1..max_delay),
                    1.0,
                    None,
                )
            })
            .collect();
        for i in 0..n - 1 {
            g.add_edge(vs[i], vs[i + 1], rng.gen_range(0..2i64));
        }
        for _ in 0..rng.gen_range(0..n + 1) {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                let w = if a < b {
                    rng.gen_range(0..2i64)
                } else {
                    rng.gen_range(1..3i64)
                };
                g.add_edge(vs[a], vs[b], w);
            }
        }
        g.add_edge(h, vs[0], rng.gen_range(0..3i64));
        g.add_edge(vs[n - 1], h, rng.gen_range(0..2i64));
        for _ in 0..rng.gen_range(0..3usize) {
            g.add_edge(h, vs[rng.gen_range(0..n)], rng.gen_range(0..3i64));
            g.add_edge(vs[rng.gen_range(0..n)], h, rng.gen_range(0..2i64));
        }
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
        // host, and the optimum is the largest delay.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 3, 1.0, None);
        g.add_edge(h, a, 2);
        g.add_edge(a, b, 0);
        g.add_edge(b, h, 0);
        assert_eq!(try_min_period_retiming(&g, 0).unwrap().result.period, 5);
    }

    #[test]
    fn combinational_io_path_bounds_period() {
        // host →0→ a →0→ b →0→ host with d(a) + d(b) = 9: no register may
        // be inserted without changing I/O latency, so the min period is 9
        // even though the registered loop b →2→ a alone would allow 5.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        g.add_edge(h, a, 0);
        g.add_edge(a, b, 0);
        g.add_edge(b, h, 0);
        g.add_edge(b, a, 2);
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 9);
        assert!(try_feasible_retiming(&g, 8).unwrap().is_none());
    }

    #[test]
    fn tight_cycle_ratio_is_the_optimum_and_its_probe_below_is_certified() {
        // host →1→ a, a →0→ b →0→ c →1→ d →1→ a, d →1→ host, every delay
        // 3: the loop carries two flip-flops over delay 12, so no period
        // below 6 exists, and 6 splits it evenly. The unretimed period is
        // 9 (a → b → c).
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
        assert_eq!(try_min_period_retiming(&g, 0).unwrap().result.period, 6);
        let (r, passes) = feas_loop(&mut Feas::new(&g), 5, vec![0; 5]).unwrap();
        assert!(r.is_none());
        assert!(passes <= 8, "{passes} passes at T_min − 1");
    }

    #[test]
    fn huge_flip_flop_counts_are_no_overflow() {
        // The loop a ⇄ b carries i64::MAX / 2 flip-flops. Moving the
        // output register back over b cuts a → b, so 5 is the optimum.
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
            Ok(5)
        );
    }

    #[test]
    fn the_closure_raises_the_host_and_the_inputs_behind_it() {
        // host →1→ a →0→ b →0→ host: at 5, raising b drives b → host
        // negative, so the closure raises the host, and then a behind
        // the host's registered input edge stays legal. Each raise is
        // forced, so the result is the least feasible retiming.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        g.add_edge(h, a, 1);
        g.add_edge(a, b, 0);
        g.add_edge(b, h, 0);
        let r = try_feasible_retiming(&g, 5)
            .unwrap()
            .expect("5 is feasible");
        assert_eq!(r, [1, 0, 1]);
        assert_eq!(g.retimed_weights(&r), [0, 1, 0]);
        // With no input register, the closure chases the raise round
        // the I/O loop, and the certificate ends the probe.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        g.add_edge(h, a, 0);
        g.add_edge(a, b, 0);
        g.add_edge(b, h, 0);
        assert_eq!(try_feasible_retiming(&g, 9).unwrap(), None);
        assert!(try_feasible_retiming(&g, 10).unwrap().is_some());
    }

    /// `retime.probe` counts every probe of either graph kind, and no
    /// search builds W/D.
    #[test]
    fn every_probe_is_counted_and_no_search_builds_wd() {
        // The host graph of `combinational_io_path_bounds_period` probes
        // 5, 7 and 8, all infeasible; the host-free loop's floor is its
        // optimum.
        let mut io = RetimeGraph::new();
        let h = io.add_vertex(VertexKind::Host, 0, 1.0, None);
        io.set_host(h);
        let a = io.add_vertex(VertexKind::Functional, 4, 1.0, None);
        let b = io.add_vertex(VertexKind::Functional, 5, 1.0, None);
        io.add_edge(h, a, 0);
        io.add_edge(a, b, 0);
        io.add_edge(b, h, 0);
        io.add_edge(b, a, 2);
        for (g, probes) in [(io, 3), (two_vertex_loop(), 1)] {
            let (_, _, report) = lacr_obs::run_captured(|| try_min_period_retiming(&g, 0).unwrap());
            assert_eq!(report.counter("retime.probe"), Some(probes));
            assert!(report.span("retime.wd_build").is_none());
        }
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

    /// Regression: with a positive tolerance and the optimum sitting
    /// exactly at the bracket floor, the search used to return the last
    /// feasible *midpoint* instead of probing the floor — the final
    /// downward probe was gated on `tolerance_ps == 0`.
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

    /// FEAS, with its host stop and legality closure, agrees with brute
    /// force on random host graphs with random primary inputs, outputs and
    /// chords.
    #[test]
    fn constraint_oracle_agrees_with_brute_force_on_host_graphs() {
        let mut rng = Rng::seed_from_u64(99);
        let (mut feasible, mut infeasible) = (0, 0);
        for case in 0..60 {
            let n = rng.gen_range(2..4usize);
            let g = random_host_graph(&mut rng, n, 5);
            let unretimed = g.try_clock_period(&g.weights()).expect("valid");
            for t in 1..=unretimed {
                let feas = try_feasible_retiming(&g, t).unwrap().is_some();
                let brute = brute_force_feasible(&g, t);
                assert_eq!(feas, brute, "case {case}: target {t}, graph {g:?}");
                feasible += usize::from(feas);
                infeasible += usize::from(!feas);
            }
        }
        assert!(feasible > 0 && infeasible > 0);
    }

    lacr_prng::properties! {
        cases = 40;

        /// The search finds the same minimum period as a slow reference
        /// oracle that re-derives feasibility from scratch — linear scan
        /// over every candidate period with a cold W/D constraint system
        /// per candidate. Replayable via `LACR_PROP_REPLAY`.
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
                .find(|&t| wd_feasible(&g, t))
                .expect("unretimed period is always feasible");
            lacr_prng::prop_assert_eq!(fast, slow);
        }
    }

    lacr_prng::properties! {
        cases = 64;

        /// On random host graphs (2–23 vertices, random primary inputs and
        /// outputs, chords) FEAS gives the W/D oracle's verdict at every
        /// target from `d_max` to the unretimed period, and every
        /// retiming it returns is legal and meets the target.
        fn feas_matches_the_wd_oracle_on_host_graphs(rng) {
            let n = rng.gen_range(2..24usize);
            let g = random_host_graph(rng, n, 9);
            let unretimed = g.try_clock_period(&g.weights()).expect("valid circuit");
            let d_max = g.vertex_ids().map(|v| g.delay(v)).max().unwrap();
            for t in d_max..=unretimed {
                let feas = try_feasible_retiming(&g, t).unwrap();
                let oracle = wd_feasible(&g, t);
                lacr_prng::prop_assert!(
                    feas.is_some() == oracle,
                    "target {t}: FEAS {}, W/D {oracle}",
                    feas.is_some()
                );
                if let Some(r) = feas {
                    let w = g.retimed_weights(&r);
                    lacr_prng::prop_assert!(g.weights_legal(&w), "target {t}: illegal");
                    let period = g.try_clock_period(&w).unwrap();
                    lacr_prng::prop_assert!(period <= t, "target {t}: period {period}");
                }
            }
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
                let oracle = wd_feasible(&g, t);
                lacr_prng::prop_assert!(
                    feas.is_some() == oracle,
                    "target {t}: FEAS {}, oracle {oracle}",
                    feas.is_some()
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
    /// rings ends at its predecessor-cycle certificate within a few dozen
    /// passes.
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
