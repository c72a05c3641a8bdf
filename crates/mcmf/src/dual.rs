//! Incremental solver for a *family* of dual programs sharing one
//! constraint set.
//!
//! LAC-retiming solves a series of weighted min-area retimings whose
//! constraints never change — only the objective coefficients (node
//! imbalances of the dual transshipment) move a little each round.
//! [`DualSolver`] keeps the residual network and Johnson potentials
//! between solves: because arc costs are fixed, the previous optimal flow
//! remains reduced-cost optimal, and each new solve only has to route the
//! *difference* between the old and new imbalances. After the first round
//! this is typically a tiny fraction of a from-scratch solve.
//!
//! That network is LAC's working set, so it is stored flat: arc pairs as
//! a struct of arrays and one CSR adjacency, 40 bytes a merged constraint,
//! with room set aside once for the source and sink arcs every solve adds.

use crate::difference::DifferenceConstraints;
use crate::{Constraint, DualError};

/// An incremental solver for
/// `min Σ cost[v]·r[v]  s.t.  r[u] − r[v] ≤ bound` with a fixed constraint
/// set and varying costs.
///
/// It holds 40 bytes a merged constraint and 76 a variable, the room for
/// every solve's source and sink arcs included; a solve allocates only
/// its routing buffers and the returned lags.
///
/// # Examples
///
/// ```
/// use lacr_mcmf::{Constraint, DualSolver};
///
/// let cons = [Constraint::new(0, 1, 3), Constraint::new(1, 0, 0)];
/// let mut solver = DualSolver::new(2, &cons)?;
/// // minimise r0 − r1: the optimum sits on r1 − r0 ≤ 0.
/// let r1 = solver.solve(&[1, -1])?;
/// assert_eq!(r1[0] - r1[1], 0);
/// // Re-solve with flipped costs: warm-started, same constraints.
/// let r2 = solver.solve(&[-1, 1])?;
/// assert_eq!(r2[0] - r2[1], 3);
/// // The solver's flow certifies the optimum by LP duality.
/// lacr_mcmf::check_optimal(2, &cons, &[-1, 1], &r2, &solver.flows()).unwrap();
/// # Ok::<(), lacr_mcmf::DualError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DualSolver {
    n: usize,
    /// Residual arcs in (forward, reverse) pairs, so arc `a`'s reverse is
    /// `a ^ 1`: `head[a]` is its head and `cap[a]` its residual capacity.
    /// Pair `k` below the merged-constraint count `m` is merged constraint
    /// `k`; a solve appends its s/t pairs after them, into room `new`
    /// reserved, and truncates them when it ends.
    head: Vec<u32>,
    cap: Vec<i64>,
    /// One cost per pair, its forward arc's; the reverse arc costs the
    /// negation. The `m` constraint bounds are followed by `n` zeros, the
    /// costs of the s/t pairs a solve may add.
    cost: Vec<i64>,
    /// Node `u`'s arcs, in the order they were added, are
    /// `adj[start[u]..end[u]]`. A variable's row ends in one spare slot
    /// for the one s/t arc a solve may give it; the rows of `s` and `t`
    /// have `n` slots each.
    adj: Vec<u32>,
    start: Vec<u32>,
    end: Vec<u32>,
    pi: Vec<i64>,
    /// Imbalance satisfied by the current interior flow.
    cur: Vec<i64>,
    /// The initial potentials, for resetting after a failed solve (a
    /// partial routing leaves the flow inconsistent with `cur`).
    pi0: Vec<i64>,
    /// The caller's constraints, which every successful solve in a debug
    /// build certifies itself against.
    #[cfg(debug_assertions)]
    constraints: Vec<Constraint>,
    /// Global relabels run so far, which tests read.
    #[cfg(test)]
    global_relabels: u64,
}

/// Capacity of a constraint arc: a finite stand-in for infinity. A solve
/// whose flow fills one fails with [`DualError::Overflow`].
const INF_CAP: i64 = i64::MAX / 4;

impl DualSolver {
    /// Builds the solver: verifies feasibility of the constraint system
    /// once, merges parallel constraints and prepares the flow network.
    ///
    /// # Errors
    ///
    /// [`DualError::Infeasible`] when the constraints have no solution;
    /// [`DualError::VariableOutOfRange`] for a bad index.
    ///
    /// # Panics
    ///
    /// Panics if the nodes, arcs or adjacency slots of the network
    /// overflow a `u32` index.
    pub fn new(num_vars: usize, constraints: &[Constraint]) -> Result<Self, DualError> {
        for c in constraints {
            if c.u >= num_vars {
                return Err(DualError::VariableOutOfRange(c.u));
            }
            if c.v >= num_vars {
                return Err(DualError::VariableOutOfRange(c.v));
            }
        }
        let potentials = DifferenceConstraints::new(num_vars, constraints.iter().copied())
            .solve()
            .ok_or(DualError::Infeasible)?;

        // Nodes 0..n are variables; n = super source, n+1 = super sink.
        let nn = num_vars + 2;
        assert!(
            u32::try_from(nn).is_ok(),
            "{num_vars} variables overflow the u32 node index"
        );
        // Merge parallel constraints: sorting puts each `(u, v)`'s tightest
        // bound first, and the dedup keeps it. The network is laid out in
        // `(u, v)` order, and tie-breaks during path search follow that
        // layout, so it must not depend on the caller's constraint order.
        let mut merged = Vec::with_capacity(constraints.len());
        merged.extend(
            constraints
                .iter()
                .filter(|c| c.u != c.v) // non-negative self-bound, vacuous
                .map(|c| (c.u as u32, c.v as u32, c.bound)),
        );
        merged.sort_unstable();
        merged.dedup_by_key(|&mut (u, v, _)| (u, v));
        let m = merged.len();
        // Arcs (`2m + 2n`) and adjacency slots (`2m + 3n`) are u32 indices.
        assert!(
            u32::try_from(2 * m + 3 * nn).is_ok(),
            "{m} merged constraints overflow the u32 arc index"
        );

        // Row sizes: each variable's degree plus its spare slot, then `n`
        // slots each for s and t; `start` is their prefix sum.
        let mut start = vec![0u32; nn + 1];
        for &(u, v, _) in &merged {
            start[u as usize + 1] += 1;
            start[v as usize + 1] += 1;
        }
        let spare = std::iter::repeat_n(1, num_vars);
        for (x, slots) in spare.chain([num_vars as u32; 2]).enumerate() {
            start[x + 1] += start[x] + slots;
        }
        // Initial potentials: the Bellman–Ford solution of the constraint
        // system gives distances `r` with `r_u − r_v ≤ b` for every arc,
        // i.e. `b + (−r_u) − (−r_v) ≥ 0`: π = −r is dual-feasible.
        let mut pi = Vec::with_capacity(nn);
        pi.extend(potentials.iter().map(|&r| -r));
        pi.extend([0, 0]); // s and t, fixed up per solve
        let mut solver = Self {
            n: num_vars,
            head: Vec::with_capacity(2 * (m + num_vars)),
            cap: Vec::with_capacity(2 * (m + num_vars)),
            cost: Vec::with_capacity(m + num_vars),
            adj: vec![0; start[nn] as usize],
            end: start[..nn].to_vec(),
            start,
            pi0: pi.clone(),
            pi,
            cur: vec![0; num_vars],
            #[cfg(debug_assertions)]
            constraints: constraints.to_vec(),
            #[cfg(test)]
            global_relabels: 0,
        };
        for &(u, v, b) in &merged {
            solver.push_pair(u as usize, v as usize, INF_CAP);
            solver.cost.push(b);
        }
        solver.cost.resize(m + num_vars, 0);
        Ok(solver)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Solves for the given cost vector, warm-starting from the previous
    /// solution.
    ///
    /// Returns the optimal assignment, anchored at `min r = 0`.
    ///
    /// # Errors
    ///
    /// [`DualError::Unbounded`] when the objective has no finite minimum
    /// (costs not summing to zero, or an imbalance the constraint arcs
    /// cannot route); [`DualError::Overflow`] when the supplies are too
    /// large for the `i64` network. A failed routing resets the warm
    /// start to the freshly built network.
    ///
    /// # Panics
    ///
    /// Panics if `cost.len() != num_vars()`.
    pub fn solve(&mut self, cost: &[i64]) -> Result<Vec<i64>, DualError> {
        assert_eq!(cost.len(), self.n);
        if cost.iter().map(|&c| i128::from(c)).sum::<i128>() != 0 {
            return Err(DualError::Unbounded);
        }
        let s = self.n;
        let t = self.n + 1;

        // Deltas to route on top of the existing interior flow.
        let interior_arcs = self.head.len();
        let mut supply = 0i128;
        let mut pi_s = i64::MIN;
        let mut pi_t = i64::MAX;
        for (v, &c) in cost.iter().enumerate() {
            // `cost` and `cur` both sum to zero, so the negative deltas
            // total the positive ones: once that total fits an i64, so
            // does every delta, and the capacity casts below are exact.
            let d = i128::from(c) - i128::from(self.cur[v]);
            if d < 0 {
                // v must shed inflow: s → v supplies the delta.
                self.push_pair(s, v, -d as i64);
                pi_s = pi_s.max(self.pi[v]);
            } else if d > 0 {
                self.push_pair(v, t, d as i64);
                pi_t = pi_t.min(self.pi[v]);
                supply += d;
            }
        }
        // Dual-feasible potentials for the fresh s/t arcs: the zero-cost
        // arc s→v needs π_s ≥ π_v, and v→t needs π_t ≤ π_v.
        if pi_s != i64::MIN {
            self.pi[s] = pi_s;
        }
        if pi_t != i64::MAX {
            self.pi[t] = pi_t;
        }

        let mut result = match i64::try_from(supply) {
            Ok(remaining) => self.route(s, t, remaining),
            Err(_) => Err(DualError::Overflow),
        };
        // Drop the s/t arcs whatever happened; their room stays reserved.
        self.head.truncate(interior_arcs);
        self.cap.truncate(interior_arcs);
        for (end, &next) in self.end[..self.n].iter_mut().zip(&self.start[1..]) {
            *end = next - 1;
        }
        self.end[s] = self.start[s];
        self.end[t] = self.start[t];
        // A full constraint arc leaves the residual network, so the
        // potentials no longer bound `r_u − r_v` by its `b`, and a failed
        // routing may be this artefact rather than unboundedness.
        if self.cap.iter().step_by(2).any(|&c| c == 0) {
            result = Err(DualError::Overflow);
        }
        if result.is_err() {
            // A partial routing left flow inconsistent with `cur`; empty
            // every interior arc pair and restore the initial potentials,
            // as freshly built, so later solves stay correct.
            for pair in self.cap.chunks_exact_mut(2) {
                pair.copy_from_slice(&[INF_CAP, 0]);
            }
            self.pi.clone_from(&self.pi0);
            self.cur.iter_mut().for_each(|c| *c = 0);
        }
        result?;

        self.cur.copy_from_slice(cost);
        let mut r: Vec<i64> = (0..self.n).map(|v| -self.pi[v]).collect();
        if let Some(&m) = r.iter().min() {
            for x in &mut r {
                *x -= m;
            }
        }
        #[cfg(debug_assertions)]
        if let Err(e) = crate::certificate::check_flows(
            self.n,
            &self.constraints,
            cost,
            &r,
            self.flow_entries(),
        ) {
            panic!("DualSolver solution fails its optimality certificate: {e}");
        }
        Ok(r)
    }

    /// The flow held after the last solve: one entry per merged constraint
    /// `(u, v)` at its tightest bound. After a successful solve,
    /// [`crate::check_optimal`] accepts it with that solve's costs and
    /// lags as the certificate of their optimality.
    pub fn flows(&self) -> Vec<(Constraint, i64)> {
        self.flow_entries().collect()
    }

    /// The entries of [`Self::flows`], uncollected.
    fn flow_entries(&self) -> impl Iterator<Item = (Constraint, i64)> + '_ {
        // Between solves the arcs are the constraint pairs alone, and the
        // reverse arc's residual capacity is the forward arc's flow.
        let pairs = self.head.chunks_exact(2).zip(self.cap.chunks_exact(2));
        pairs
            .zip(&self.cost)
            .map(|((h, c), &b)| (Constraint::new(h[1] as usize, h[0] as usize, b), c[1]))
    }

    /// Appends the arc pair `from → to`, with residual capacity `cap` and
    /// an empty reverse, and enters each arc in its tail's row. The pair's
    /// cost is `cost[k]` for the `k`-th pair: a merged constraint's bound,
    /// or one of the zeros reserved for the s/t arcs of a solve.
    fn push_pair(&mut self, from: usize, to: usize, cap: i64) {
        let fwd = self.head.len() as u32;
        self.head.extend([to as u32, from as u32]);
        self.cap.extend([cap, 0]);
        for (x, a) in [(from, fwd), (to, fwd + 1)] {
            debug_assert!(self.end[x] < self.start[x + 1], "row {x} is full");
            self.adj[self.end[x] as usize] = a;
            self.end[x] += 1;
        }
    }

    /// Node `u`'s arcs, in the order they were added.
    fn row(&self, u: usize) -> &[u32] {
        &self.adj[self.start[u] as usize..self.end[u] as usize]
    }

    /// Arc `a`'s cost plus the potential of its tail `u`, minus that of
    /// its head.
    fn reduced_cost(&self, u: usize, a: u32) -> i64 {
        let a = a as usize;
        let pair_cost = self.cost[a >> 1];
        let cost = if a & 1 == 0 { pair_cost } else { -pair_cost };
        cost + self.pi[u] - self.pi[self.head[a] as usize]
    }

    /// The tail of arc `a`: the head of its reverse.
    fn tail(&self, a: u32) -> usize {
        self.head[a as usize ^ 1] as usize
    }

    /// Primal–dual min-cost routing of `remaining` units from `s` to `t`.
    ///
    /// Each phase makes one *repricing* ([`Self::reprice`]): a Dijkstra
    /// over reduced costs and the dual update. It then routes an exact
    /// maximum flow, capped at `remaining`, over the arcs the new
    /// potentials make admissible ([`Self::max_flow`]). After the phase no
    /// zero-cost path is left, so the next repricing moves the
    /// potentials. Which maximum flow a phase finds cannot change the
    /// potentials any later repricing computes (ALGORITHMS.md §4), so the
    /// returned `r` and the number of phases are those of every exact
    /// maximum-flow routine.
    fn route(&mut self, s: usize, t: usize, mut remaining: i64) -> Result<(), DualError> {
        let nn = self.n + 2;
        let mut w = Buffers {
            dist: vec![i64::MAX; nn],
            heap: NodeHeap::new(nn),
            first: vec![0; nn + 1],
            admissible: Vec::new(),
            cur: vec![0; nn],
            label: vec![0; nn],
            queue: Vec::with_capacity(nn),
            path: Vec::new(),
        };
        // Statistics, accumulated locally (the loop is hot) and flushed
        // as counters on exit.
        let mut augmentations = 0_u64;
        let mut repricings = 0_u64;
        let mut result = Ok(());
        while remaining > 0 {
            repricings += 1;
            if self.reprice(s, t, &mut w).is_none() {
                result = Err(DualError::Unbounded);
                break;
            }
            let augmented = self.max_flow(s, t, &mut remaining, &mut w);
            // A repricing leaves its shortest s–t path admissible, so the
            // phase routes at least one unit. This is also what keeps the
            // loop from spinning.
            debug_assert!(augmented > 0, "no path after a repricing");
            augmentations += augmented;
        }
        lacr_obs::counter!("mcmf.ssp_iterations", augmentations);
        lacr_obs::counter!("mcmf.dijkstra_phases", repricings);
        result
    }

    /// Runs Dijkstra over reduced costs from `s`, raises each potential by
    /// `min(dist, dist_t)` and lists the arcs that the new potentials make
    /// admissible. Returns `None` when `t` is unreachable. Which of several
    /// equally near nodes the queue settles first cannot change the
    /// potentials (ALGORITHMS.md §4).
    fn reprice(&mut self, s: usize, t: usize, w: &mut Buffers) -> Option<()> {
        w.dist.fill(i64::MAX);
        w.dist[s] = 0;
        w.heap.clear();
        w.heap.push_or_decrease(s, &w.dist);
        let mut dist_t = None;
        while let Some(u) = w.heap.pop(&w.dist) {
            let d = w.dist[u];
            if u == t {
                dist_t = Some(d);
                break;
            }
            for &a in self.row(u) {
                if self.cap[a as usize] <= 0 {
                    continue;
                }
                let rc = self.reduced_cost(u, a);
                debug_assert!(rc >= 0, "negative reduced cost {rc}");
                let (v, nd) = (self.head[a as usize] as usize, d + rc);
                if nd < w.dist[v] {
                    w.dist[v] = nd;
                    w.heap.push_or_decrease(v, &w.dist);
                }
            }
        }
        let dist_t = dist_t?;
        for (p, &d) in self.pi.iter_mut().zip(&w.dist) {
            *p += d.min(dist_t);
        }
        // Potentials stay put until the next repricing, and augmenting
        // changes capacities, never reduced costs: the phase needs only
        // the arcs of zero reduced cost, whatever their capacity. An arc
        // and its reverse have opposite reduced costs, so the list holds
        // the reverse of every arc it holds.
        w.admissible.clear();
        for u in 0..self.end.len() {
            w.first[u] = w.admissible.len() as u32;
            let zero = self
                .row(u)
                .iter()
                .filter(|&&a| self.reduced_cost(u, a) == 0);
            w.admissible.extend(zero);
        }
        w.first[self.end.len()] = w.admissible.len() as u32;
        Some(())
    }

    /// Routes a maximum flow, capped at `remaining`, over the admissible
    /// arcs with capacity: ISAP (improved shortest augmenting path).
    /// `label[v]` is a lower bound on `v`'s admissible distance to `t`.
    /// The search advances along arcs one label closer to `t`, relabels
    /// a node that has none left, and augments on reaching `t`; it ends
    /// once `s`'s label reaches the node count, when no path is left.
    /// Labels start exact and are made exact again after every `nn`
    /// relabels, which keeps nodes from climbing one step at a time
    /// around the 2-cycles that every arc carrying flow forms. Returns
    /// the number of augmentations.
    fn max_flow(&mut self, s: usize, t: usize, remaining: &mut i64, w: &mut Buffers) -> u64 {
        let nn = self.end.len();
        let unreachable = nn as u32;
        self.global_relabel(t, w);
        let mut augmentations = 0;
        let mut relabels = 0;
        let mut v = s;
        while *remaining > 0 && w.label[s] < unreachable {
            if v == t {
                let bottleneck = w
                    .path
                    .iter()
                    .fold(*remaining, |b, &a| b.min(self.cap[a as usize]));
                for &a in &w.path {
                    self.cap[a as usize] -= bottleneck;
                    self.cap[a as usize ^ 1] += bottleneck;
                }
                *remaining -= bottleneck;
                augmentations += 1;
                // Resume at the tail of the first arc the augmentation
                // saturated: every cursor on the path still points at its
                // path arc. No arc saturates only when `remaining` was the
                // bottleneck, and the phase is done.
                let Some(k) = w.path.iter().position(|&a| self.cap[a as usize] == 0) else {
                    break;
                };
                v = self.tail(w.path[k]);
                w.path.truncate(k);
                continue;
            }
            // `v` is not `t` and its label is below `nn`, so it is at
            // least 1: only `t` has label 0.
            let closer = w.label[v] - 1;
            let end = w.first[v + 1];
            while w.cur[v] < end {
                let a = w.admissible[w.cur[v] as usize] as usize;
                if self.cap[a] > 0 && w.label[self.head[a] as usize] == closer {
                    break;
                }
                w.cur[v] += 1;
            }
            if w.cur[v] < end {
                let a = w.admissible[w.cur[v] as usize];
                w.path.push(a);
                v = self.head[a as usize] as usize;
                continue;
            }
            // Dead end: raise the label to one past the nearest
            // neighbour's, rewind the cursor and retreat one step.
            let arcs = &w.admissible[w.first[v] as usize..end as usize];
            w.label[v] = arcs
                .iter()
                .map(|&a| a as usize)
                .filter(|&a| self.cap[a] > 0)
                .map(|a| w.label[self.head[a] as usize] + 1)
                .fold(unreachable, u32::min);
            w.cur[v] = w.first[v];
            relabels += 1;
            if relabels == nn {
                relabels = 0;
                self.global_relabel(t, w);
                w.path.clear();
                v = s;
            } else if let Some(a) = w.path.pop() {
                v = self.tail(a);
            }
        }
        augmentations
    }

    /// Sets every label to its node's exact admissible distance to `t`,
    /// `nn` where `t` is out of reach, by a BFS from `t`, and rewinds the
    /// cursors. The BFS walks `u`'s own admissible list, which holds the
    /// reverse of every admissible arc into `u`, and tests that reverse
    /// arc's capacity.
    fn global_relabel(&mut self, t: usize, w: &mut Buffers) {
        let unreachable = self.end.len() as u32;
        w.label.fill(unreachable);
        w.label[t] = 0;
        w.queue.clear();
        w.queue.push(t as u32);
        let mut head = 0;
        while let Some(&u) = w.queue.get(head) {
            head += 1;
            let u = u as usize;
            let next = w.label[u] + 1;
            for &a in &w.admissible[w.first[u] as usize..w.first[u + 1] as usize] {
                let (a, x) = (a as usize, self.head[a as usize]);
                if w.label[x as usize] == unreachable && self.cap[a ^ 1] > 0 {
                    w.label[x as usize] = next;
                    w.queue.push(x);
                }
            }
        }
        w.cur.copy_from_slice(&w.first[..self.end.len()]);
        #[cfg(test)]
        {
            self.global_relabels += 1;
        }
    }
}

/// Working arrays of one [`DualSolver::route`] call. Node and arc indices
/// are u32, which keeps the working set small.
struct Buffers {
    dist: Vec<i64>,
    heap: NodeHeap,
    /// Arcs of zero reduced cost at the last repricing, node `v`'s in
    /// adjacency order at `admissible[first[v]..first[v + 1]]`.
    first: Vec<u32>,
    admissible: Vec<u32>,
    /// Max-flow state: `cur[v]` is the next slot of `admissible` to try
    /// at `v`, `label[v]` its distance label, `queue` the BFS queue of a
    /// global relabel and `path` the arcs from `s` to the current node.
    cur: Vec<u32>,
    label: Vec<u32>,
    queue: Vec<u32>,
    path: Vec<u32>,
}

/// The slot of a node that is not in a [`NodeHeap`].
const NOT_QUEUED: u32 = u32::MAX;

/// A binary min-heap of nodes keyed by their `dist`, with one entry per
/// node: lowering a queued node's key moves its entry up (decrease-key)
/// instead of queuing it again.
struct NodeHeap {
    nodes: Vec<u32>,
    /// Each node's index in `nodes`, or [`NOT_QUEUED`].
    slot: Vec<u32>,
}

impl NodeHeap {
    fn new(nn: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nn),
            slot: vec![NOT_QUEUED; nn],
        }
    }

    fn clear(&mut self) {
        for &v in &self.nodes {
            self.slot[v as usize] = NOT_QUEUED;
        }
        self.nodes.clear();
    }

    /// Queues `v`, or moves its entry up after `dist[v]` fell.
    fn push_or_decrease(&mut self, v: usize, dist: &[i64]) {
        let i = match self.slot[v] {
            NOT_QUEUED => {
                self.nodes.push(v as u32);
                self.nodes.len() - 1
            }
            i => i as usize,
        };
        self.sift_up(i, dist);
    }

    /// Removes and returns a node of least `dist`.
    fn pop(&mut self, dist: &[i64]) -> Option<usize> {
        let top = *self.nodes.first()?;
        self.slot[top as usize] = NOT_QUEUED;
        let last = self.nodes.pop().expect("the heap holds `top`");
        if !self.nodes.is_empty() {
            self.nodes[0] = last;
            self.sift_down(0, dist);
        }
        Some(top as usize)
    }

    /// Moves the entry at index `i` up past every parent with a larger
    /// key.
    fn sift_up(&mut self, mut i: usize, dist: &[i64]) {
        let v = self.nodes[i];
        while i > 0 {
            let parent = self.nodes[(i - 1) / 2];
            if dist[parent as usize] <= dist[v as usize] {
                break;
            }
            self.place(i, parent);
            i = (i - 1) / 2;
        }
        self.place(i, v);
    }

    /// Moves the entry at index `i` down past every child with a smaller
    /// key.
    fn sift_down(&mut self, mut i: usize, dist: &[i64]) {
        let v = self.nodes[i];
        loop {
            let mut c = 2 * i + 1;
            if c >= self.nodes.len() {
                break;
            }
            let key = |j: usize| dist[self.nodes[j] as usize];
            if c + 1 < self.nodes.len() && key(c + 1) < key(c) {
                c += 1;
            }
            if key(c) >= dist[v as usize] {
                break;
            }
            self.place(i, self.nodes[c]);
            i = c;
        }
        self.place(i, v);
    }

    fn place(&mut self, i: usize, v: u32) {
        self.nodes[i] = v;
        self.slot[v as usize] = i as u32;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::check_optimal;
    use lacr_prng::Rng;

    /// A constraint `r[u] − r[v] ≤ bound` as `(u, v, bound)`.
    pub(crate) type Triple = (usize, usize, i64);

    /// A diamond 0 → {1, 2} → 3 with zero-bound back arcs. Maximising
    /// `r0 − r3` (costs `[-1, 0, 0, 1]`) routes one unit along the cheaper
    /// side 0 → 1 → 3, for an optimum of −3.
    pub(crate) const DIAMOND: [Triple; 8] = [
        (0, 1, 1),
        (1, 0, 0),
        (0, 2, 4),
        (2, 0, 0),
        (1, 3, 2),
        (3, 1, 0),
        (2, 3, 2),
        (3, 2, 0),
    ];

    pub(crate) fn system(triples: &[Triple]) -> Vec<Constraint> {
        triples
            .iter()
            .map(|&(u, v, b)| Constraint::new(u, v, b))
            .collect()
    }

    /// Solves, then certifies the result from `cons` and the solver's flow
    /// (release builds skip the solver's own debug-only check).
    fn certified(
        solver: &mut DualSolver,
        cons: &[Constraint],
        cost: &[i64],
    ) -> Result<Vec<i64>, DualError> {
        let r = solver.solve(cost)?;
        if let Err(e) = check_optimal(solver.num_vars(), cons, cost, &r, &solver.flows()) {
            panic!("r = {r:?} for costs {cost:?} is not certified: {e}");
        }
        Ok(r)
    }

    #[test]
    fn warm_starts_are_certified_on_random_instances() {
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..50 {
            let n = rng.gen_range(2..6usize);
            // A ring of constraints keeps everything bounded.
            let mut cons = Vec::new();
            for i in 0..n {
                cons.push(Constraint::new(i, (i + 1) % n, rng.gen_range(0..4)));
            }
            for _ in 0..rng.gen_range(0..4) {
                cons.push(Constraint::new(
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(0..5),
                ));
            }
            let mut solver = DualSolver::new(n, &cons).expect("non-negative bounds are feasible");
            // Several cost vectors in sequence, each solve warm-started
            // from the last and certified on its own.
            for _ in 0..4 {
                let cost = balanced_costs(&mut rng, n, 5);
                certified(&mut solver, &cons, &cost).expect("a ring is bounded");
            }
        }
    }

    /// A degenerate bounded system over `n` variables: every bound is
    /// `p_u − p_v` plus a slack for a hidden `p`, so `p` is feasible; a
    /// ring keeps every balanced cost bounded, and fixed pairs (no slack
    /// either way) put zero-cost cycles in the network.
    fn degenerate_system(rng: &mut Rng, n: usize) -> Vec<Constraint> {
        let p: Vec<i64> = (0..n).map(|_| rng.gen_range(0..8)).collect();
        let mut cons = Vec::new();
        let mut push = |u: usize, v: usize, slack: i64| {
            cons.push(Constraint::new(u, v, p[u] - p[v] + slack));
        };
        for u in 0..n {
            push(u, (u + 1) % n, rng.gen_range(0..3));
        }
        for _ in 0..2 * n {
            push(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(0..4),
            );
        }
        for _ in 0..n / 4 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            push(u, v, 0);
            push(v, u, 0);
        }
        cons
    }

    /// Costs drawn from `-span..=span`, balanced to sum to zero on
    /// variable 0.
    fn balanced_costs(rng: &mut Rng, n: usize, span: i64) -> Vec<i64> {
        let mut cost: Vec<i64> = (0..n).map(|_| rng.gen_range(-span..=span)).collect();
        let sum: i64 = cost.iter().sum();
        cost[0] -= sum;
        cost
    }

    /// Pins which of several optimal `r` every warm solve returns on
    /// degenerate systems. ALGORITHMS.md §4 proves the potentials after
    /// each repricing independent of which maximum flow the phases
    /// before it found, so a change that only makes `route` faster must
    /// keep this digest. The flow is one of many optimal flows, certified
    /// by every solve; its digest moves whenever `route` finds a
    /// different maximum flow, and then only on purpose.
    #[test]
    fn warm_solve_trajectory_is_pinned() {
        let mut rng = Rng::seed_from_u64(17);
        let (mut lags, mut flows) = (Vec::new(), Vec::new());
        for _ in 0..24 {
            let n = rng.gen_range(30..=80usize);
            let cons = degenerate_system(&mut rng, n);
            let mut solver = DualSolver::new(n, &cons).expect("p is feasible");
            for _ in 0..4 {
                let cost = balanced_costs(&mut rng, n, 20);
                lags.extend(certified(&mut solver, &cons, &cost).expect("a ring is bounded"));
                let f = solver.flows().into_iter();
                flows.extend(f.flat_map(|(c, f)| [c.u as i64, c.v as i64, c.bound, f]));
            }
        }
        let digest =
            |words: Vec<i64>| lacr_obs::fnv1a64(words.into_iter().flat_map(i64::to_le_bytes));
        let (lags, flows) = (digest(lags), digest(flows));
        assert_eq!(lags, 0xf97a_169c_62a5_25eb, "{lags:#018x}");
        assert_eq!(flows, 0xf7a3_5ee9_ebe3_5ff8, "{flows:#018x}");
    }

    /// Renumbering the variables (and reordering the constraint list)
    /// renumbers every warm solve's `r` and changes nothing else: the
    /// potentials depend on the program, never on the arc layout or on
    /// which maximum flow a phase found (ALGORITHMS.md §4). Small costs
    /// over fixed pairs leave many optimal `r`, so a layout-dependent
    /// choice among them would show here.
    #[test]
    fn warm_solves_commute_with_renumbering() {
        let mut rng = Rng::seed_from_u64(29);
        for _ in 0..60 {
            let n = rng.gen_range(4..=60usize);
            let cons = degenerate_system(&mut rng, n);
            let perm = rng.permutation(n);
            let mut renumbered: Vec<Constraint> = cons
                .iter()
                .map(|c| Constraint::new(perm[c.u], perm[c.v], c.bound))
                .collect();
            rng.shuffle(&mut renumbered);
            let mut solver = DualSolver::new(n, &cons).expect("p is feasible");
            let mut twin = DualSolver::new(n, &renumbered).expect("p is feasible");
            for _ in 0..4 {
                let cost = balanced_costs(&mut rng, n, 2);
                let mut twin_cost = vec![0; n];
                for (v, &c) in cost.iter().enumerate() {
                    twin_cost[perm[v]] = c;
                }
                let r = certified(&mut solver, &cons, &cost).expect("a ring is bounded");
                let twin_r =
                    certified(&mut twin, &renumbered, &twin_cost).expect("a ring is bounded");
                for (v, &x) in r.iter().enumerate() {
                    assert_eq!(twin_r[perm[v]], x, "variable {v} (renumbered {})", perm[v]);
                }
            }
        }
    }

    #[test]
    fn cold_solves_reach_known_optima() {
        use DualError::{Infeasible, Unbounded, VariableOutOfRange};
        // (name, constraints, costs, optimal Σ cost·r or the error)
        type Case = (
            &'static str,
            &'static [Triple],
            &'static [i64],
            Result<i64, DualError>,
        );
        let cases: [Case; 11] = [
            // minimise r0 − r2 subject to r2 − r0 ≤ 0
            (
                "chain",
                &[(0, 1, 2), (1, 2, 2), (2, 0, 0)],
                &[1, 0, -1],
                Ok(0),
            ),
            // minimise r0 − r1 with r0 − r1 ≥ 1 written as r1 − r0 ≤ −1
            ("forced positive", &[(1, 0, -1), (0, 1, 5)], &[1, -1], Ok(1)),
            (
                "infeasible",
                &[(0, 1, -1), (1, 0, -1)],
                &[1, -1],
                Err(Infeasible),
            ),
            ("nonzero cost sum", &[(0, 1, 1)], &[1, 0], Err(Unbounded)),
            // minimise r0 − r1 with only r0 − r1 ≤ 3: no floor
            (
                "unbounded direction",
                &[(0, 1, 3)],
                &[1, -1],
                Err(Unbounded),
            ),
            (
                "bad index",
                &[(0, 7, 3)],
                &[1, -1],
                Err(VariableOutOfRange(7)),
            ),
            // maximise r0 − r1: the tighter parallel bound governs
            (
                "parallel merge",
                &[(0, 1, 5), (0, 1, 1), (1, 0, 0)],
                &[-1, 1],
                Ok(-1),
            ),
            (
                "self-loop >= 0",
                &[(0, 0, 0), (0, 1, 1), (1, 0, 0)],
                &[1, -1],
                Ok(0),
            ),
            ("self-loop < 0", &[(0, 0, -1)], &[0], Err(Infeasible)),
            // maximise r0 − r3: min(1 + 2, 4 + 2) = 3
            ("diamond", &DIAMOND, &[-1, 0, 0, 1], Ok(-3)),
            ("zero cost", &[(0, 1, 1), (1, 0, 2)], &[0, 0], Ok(0)),
        ];
        for (name, triples, cost, expected) in cases {
            let cons = system(triples);
            let got = DualSolver::new(cost.len(), &cons)
                .and_then(|mut solver| certified(&mut solver, &cons, cost))
                .map(|r| cost.iter().zip(&r).map(|(&c, &x)| c * x).sum());
            assert_eq!(got, expected, "{name}");
        }
    }

    /// Two phases pinned by what ends them: `(name, constraints, costs,
    /// optimal Σ cost·r, repricings, augmentations, global relabels)`.
    ///
    /// * "supply runs out": both paths from 0 cost 1, so one phase
    ///   routes all 5 units in two augmentations and stops as soon as
    ///   nothing remains, without relabelling `s` out of reach.
    /// * "global relabel": variable 0 supplies 9 units to 1, 2 and 3
    ///   around a ring. The first phase saturates 1 → t, then 2 → t.
    ///   The dead ends they leave relabel 1, 0 and `s`, then 2, 1 and 0,
    ///   and that sixth relabel (`nn` = 6) triggers a global relabel,
    ///   which finds `s` cut off from `t` and ends the phase. The last 3
    ///   units take the dearer arc 2 → 3 in a later phase.
    #[test]
    fn phases_end_where_expected() {
        type Case = (
            &'static str,
            &'static [Triple],
            &'static [i64],
            i64,
            i64,
            i64,
            u64,
        );
        let cases: [Case; 2] = [
            (
                "supply runs out",
                &[(0, 1, 1), (1, 0, 0), (0, 2, 1), (2, 0, 0)],
                &[-5, 2, 3],
                -5,
                1,
                2,
                1,
            ),
            (
                "global relabel",
                &[(0, 1, 1), (1, 2, 0), (2, 3, 1), (3, 0, 0)],
                &[-9, 3, 3, 3],
                -12,
                2,
                3,
                3,
            ),
        ];
        for (name, triples, cost, optimum, repricings, augmentations, global_relabels) in cases {
            let cons = system(triples);
            let mut solver = DualSolver::new(cost.len(), &cons).unwrap();
            let scope = lacr_obs::scope::Scope::new(name);
            let r = {
                let _attached = scope.attach();
                certified(&mut solver, &cons, cost).unwrap()
            };
            let work = scope.report();
            let got = (
                cost.iter().zip(&r).map(|(&c, &x)| c * x).sum::<i64>(),
                work.counter("mcmf.dijkstra_phases").unwrap_or(0),
                work.counter("mcmf.ssp_iterations").unwrap_or(0),
                solver.global_relabels,
            );
            assert_eq!(
                got,
                (optimum, repricings, augmentations, global_relabels),
                "{name}"
            );
        }
    }

    #[test]
    fn repeated_same_cost_is_stable() {
        let cons = system(&[(0, 1, 2), (1, 0, 1)]);
        let mut solver = DualSolver::new(2, &cons).unwrap();
        let r1 = certified(&mut solver, &cons, &[3, -3]).unwrap();
        let r2 = certified(&mut solver, &cons, &[3, -3]).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn unbounded_detected_per_solve() {
        // Only one direction constrained: pushing cost along the free
        // direction is unbounded.
        let cons = system(&[(0, 1, 2)]);
        let mut solver = DualSolver::new(2, &cons).unwrap();
        assert_eq!(solver.solve(&[1, -1]), Err(DualError::Unbounded));
        // The solver survives the failure and can solve a bounded cost.
        let r = certified(&mut solver, &cons, &[-1, 1]).unwrap();
        assert_eq!(r[0] - r[1], 2);
    }

    /// Supplies just past `INF_CAP` fill the cheap direct arc 0 → 1
    /// before the last unit is routed via 2. Returning the potentials
    /// anyway gave `r = [1, 0, 1]`, which breaks `r0 − r1 ≤ 0`.
    #[test]
    fn a_full_constraint_arc_is_an_overflow_not_an_illegal_r() {
        let x = INF_CAP + 1;
        let cons = system(&[
            (0, 1, 0),
            (0, 2, 0),
            (2, 1, 1),
            (1, 0, 5),
            (2, 0, 5),
            (1, 2, 5),
        ]);
        let mut solver = DualSolver::new(3, &cons).unwrap();
        assert_eq!(solver.solve(&[-x, x, 0]), Err(DualError::Overflow));
        // The failure restores the pristine network.
        assert!(solver.flows().iter().all(|&(_, f)| f == 0));
        let r = certified(&mut solver, &cons, &[-1, 1, 0]).unwrap();
        assert_eq!(r[0] - r[1], 0);
    }

    /// The same saturation on a 2-cycle used to strand the last unit and
    /// report the bounded program `r0 = r1` as unbounded.
    #[test]
    fn a_full_constraint_arc_is_an_overflow_not_unbounded() {
        let x = INF_CAP + 1;
        let mut solver = DualSolver::new(2, &system(&[(0, 1, 0), (1, 0, 0)])).unwrap();
        assert_eq!(solver.solve(&[-x, x]), Err(DualError::Overflow));
    }

    #[test]
    fn a_supply_sum_past_i64_is_an_overflow() {
        let big = 1_i64 << 62;
        let cons = system(&[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]);
        let mut solver = DualSolver::new(4, &cons).unwrap();
        // The costs sum to zero, but the positive supplies total 2^63.
        assert_eq!(
            solver.solve(&[-big, -big, big, big]),
            Err(DualError::Overflow)
        );
        certified(&mut solver, &cons, &[-1, -1, 1, 1]).unwrap();
    }

    /// The network holds 40 bytes a merged constraint and at most 96 a
    /// variable, the room for every solve's s/t arcs included: after
    /// `new` and three warm solves in which every variable's delta is
    /// nonzero, so that every spare slot fills. A debug build also holds
    /// the certificate's copy of the constraint list.
    #[test]
    fn the_network_holds_forty_bytes_a_merged_constraint() {
        let mut rng = Rng::seed_from_u64(43);
        let n = 16_000;
        let cons = degenerate_system(&mut rng, n);
        let mut pairs: Vec<(usize, usize)> = cons
            .iter()
            .filter(|c| c.u != c.v)
            .map(|c| (c.u, c.v))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let merged = pairs.len();
        assert!(merged >= 50_000, "{merged} merged constraints");
        // Alternating signs sum to zero, and each solve's costs differ
        // from the last ones at every variable.
        let costs: Vec<Vec<i64>> = (1..=3)
            .map(|k| (0..n).map(|v| if v % 2 == 0 { k } else { -k }).collect())
            .collect();

        let mark = lacr_obs::mem::thread_mark();
        let mut solver = DualSolver::new(n, &cons).expect("p is feasible");
        for cost in &costs {
            solver.solve(cost).expect("a ring is bounded");
        }
        let held = mark.delta().net_bytes();
        drop(solver);

        let certificate = if cfg!(debug_assertions) {
            24 * cons.len()
        } else {
            0
        };
        let bound = 40 * merged + 96 * n + certificate;
        assert!(
            held <= bound as i64,
            "{held} B held for {merged} merged constraints ({:.1} B each) and {n} variables",
            (held - (96 * n + certificate) as i64) as f64 / merged as f64
        );
    }
}
