//! Bellman–Ford solver for systems of difference constraints.

use crate::Constraint;

/// A system of difference constraints `r[u] − r[v] ≤ bound`, solved for
/// feasibility with Bellman–Ford.
///
/// Used by min-period retiming: a clock period `T` is feasible exactly when
/// the corresponding constraint system has a solution, and any Bellman–Ford
/// solution is a valid retiming vector.
///
/// # Examples
///
/// ```
/// use lacr_mcmf::{Constraint, DifferenceConstraints};
///
/// let sys = DifferenceConstraints::new(
///     2,
///     [Constraint::new(0, 1, 1), Constraint::new(1, 0, 0)],
/// );
/// let r = sys.solve().expect("feasible");
/// assert!(r[0] - r[1] <= 1 && r[1] - r[0] <= 0);
/// ```
#[derive(Debug, Clone)]
pub struct DifferenceConstraints {
    num_vars: usize,
    constraints: Vec<Constraint>,
}

impl DifferenceConstraints {
    /// Builds a system over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if a constraint references a variable `>= num_vars`.
    pub fn new<I: IntoIterator<Item = Constraint>>(num_vars: usize, constraints: I) -> Self {
        let constraints: Vec<Constraint> = constraints.into_iter().collect();
        for c in &constraints {
            assert!(
                c.u < num_vars && c.v < num_vars,
                "constraint {c:?} references a variable >= {num_vars}"
            );
        }
        Self {
            num_vars,
            constraints,
        }
    }

    /// Number of variables in the system.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The constraints of the system.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds one more constraint.
    ///
    /// # Panics
    ///
    /// Panics if the constraint references a variable out of range.
    pub fn push(&mut self, c: Constraint) {
        assert!(c.u < self.num_vars && c.v < self.num_vars);
        self.constraints.push(c);
    }

    /// Solves the system, returning one feasible assignment, or `None` if
    /// the system is infeasible (the constraint graph has a negative cycle).
    ///
    /// The returned assignment is the pointwise-maximum solution with all
    /// values ≤ 0 (standard single-source Bellman–Ford from a virtual
    /// source), shifted so that the minimum value is 0.
    pub fn solve(&self) -> Option<Vec<i64>> {
        self.run().0.ok()
    }

    /// The solver behind [`Self::solve`]: the solution, or the negative
    /// cycle that proved the system infeasible (constraints of the system
    /// in cycle order, empty when the path-length backstop proved it
    /// before the parent pointers closed a cycle), and the number of
    /// relaxations it made.
    fn run(&self) -> (Result<Vec<i64>, Vec<Constraint>>, u64) {
        // Constraint r_u − r_v ≤ b becomes edge v → u with weight b; dist
        // from a virtual source with a zero edge to each vertex yields
        // r = dist.
        let n = self.num_vars;
        if n == 0 {
            return (Ok(Vec::new()), 0);
        }
        let mut dist = vec![0i64; n];
        // Queue-based Bellman–Ford (SPFA). The result is independent of
        // relaxation order: the relaxation operator has a unique greatest
        // fixpoint ≤ 0 (the pointwise min over walks), and every
        // terminating relaxation sequence ends there — so this is
        // bit-identical to round-based Bellman–Ford, just without
        // re-scanning settled constraints.
        //
        // CSR adjacency grouped by source `v` of the edge `v → u`.
        let m = self.constraints.len();
        let mut head = vec![0u32; n + 1];
        for c in &self.constraints {
            head[c.v + 1] += 1;
        }
        for i in 0..n {
            head[i + 1] += head[i];
        }
        let mut adj = vec![(0u32, 0i64); m];
        let mut cursor: Vec<u32> = head[..n].to_vec();
        for c in &self.constraints {
            adj[cursor[c.v] as usize] = (c.u as u32, c.bound);
            cursor[c.v] += 1;
        }
        // Infeasible systems end at the first of two certificates:
        //
        // * a cycle of parent pointers (the variable and bound that last
        //   lowered each variable), looked for after every `n`
        //   relaxations: such a cycle is a negative cycle (see
        //   `parent_cycle`), and it forms after about one lap of the
        //   cycle, while
        // * the path-length witness, the backstop, needs walks of `n`
        //   edges: every vertex starts relaxed by its virtual-source
        //   edge, so it starts queued with a path of one (virtual) edge;
        //   a simple virtual-source path touches at most `n` real
        //   vertices, so any relaxation pushing a path length past `n`
        //   has revisited a vertex along a strictly improving walk.
        //
        // Feasible systems trip neither, so the solution is unchanged.
        let mut queue: std::collections::VecDeque<u32> = (0..n as u32).collect();
        let mut in_queue = vec![true; n];
        let mut path_len = vec![1u32; n];
        let mut parent = vec![(NO_PARENT, 0i64); n];
        let mut stamp = vec![0u32; n];
        let mut walk = 0u32;
        let mut relaxations = 0_u64;
        let mut since_sweep = 0usize;
        // The proof of infeasibility: a negative cycle, or an empty list
        // when only the witness fired.
        let mut proof: Option<Vec<Constraint>> = None;
        'relax: while let Some(v) = queue.pop_front() {
            in_queue[v as usize] = false;
            let dv = dist[v as usize];
            let lv = path_len[v as usize];
            for &(u, b) in &adj[head[v as usize] as usize..head[v as usize + 1] as usize] {
                let u = u as usize;
                let cand = dv.saturating_add(b);
                if cand < dist[u] {
                    dist[u] = cand;
                    path_len[u] = lv + 1;
                    parent[u] = (v, b);
                    relaxations += 1;
                    since_sweep += 1;
                    let witness = path_len[u] as usize > n;
                    if witness || since_sweep == n {
                        since_sweep = 0;
                        let found = parent_cycle(&parent, &mut stamp, &mut walk);
                        if witness || found.is_some() {
                            proof =
                                Some(found.map_or_else(Vec::new, |x| cycle_through(&parent, x)));
                            break 'relax;
                        }
                    }
                    if !in_queue[u] {
                        in_queue[u] = true;
                        queue.push_back(u as u32);
                    }
                }
            }
        }
        lacr_obs::counter!("mcmf.bf_relaxations", relaxations);
        // One extra scan to be safe against the boundary case n == 1 etc.
        if proof.is_none()
            && self
                .constraints
                .iter()
                .any(|c| dist[c.v].saturating_add(c.bound) < dist[c.u])
        {
            proof = Some(Vec::new());
        }
        if let Some(cycle) = proof {
            return (Err(cycle), relaxations);
        }
        let m = *dist.iter().min().unwrap_or(&0);
        for d in &mut dist {
            *d -= m;
        }
        (Ok(dist), relaxations)
    }

    /// Returns `true` when the system has at least one solution.
    pub fn is_feasible(&self) -> bool {
        self.solve().is_some()
    }
}

/// No parent yet: the variable still holds its initial value.
const NO_PARENT: u32 = u32::MAX;

/// A variable on a cycle of `parent` pointers, if there is one.
///
/// Such a cycle is negative. Each pointer `x → p` (`p` last lowered `x`,
/// through bound `b`) keeps `dist[x] ≥ dist[p] + b`: equality when it is
/// set, and `dist[p]` only falls afterwards. Let `x → p` be the cycle's
/// pointer set last. Just before, the pointers from `p` round to `x` gave
/// `dist[p] ≥ dist[x] + Σ_rest b`, and the relaxation made `dist[x]`
/// strictly smaller than that old value:
/// `dist[p] + b < dist[x] ≤ dist[p] − Σ_rest b`, so `Σ b < 0`. A
/// feasible system therefore never closes one.
///
/// Walks are stamped per sweep like FEAS's `pred` walks: a walk stops at a
/// variable an earlier walk of the same sweep already followed, so a
/// sweep costs `O(n)`.
fn parent_cycle(parent: &[(u32, i64)], stamp: &mut [u32], walk: &mut u32) -> Option<usize> {
    let n = parent.len() as u32;
    if *walk > u32::MAX - n {
        stamp.fill(0);
        *walk = 0;
    }
    let sweep = *walk + 1;
    for s in 0..parent.len() {
        if stamp[s] >= sweep {
            continue;
        }
        *walk += 1;
        let mut x = s as u32;
        while x != NO_PARENT {
            let seen = &mut stamp[x as usize];
            if *seen == *walk {
                return Some(x as usize);
            }
            if *seen >= sweep {
                break;
            }
            *seen = *walk;
            x = parent[x as usize].0;
        }
    }
    None
}

/// The constraints of the parent cycle through `x`, in cycle order.
fn cycle_through(parent: &[(u32, i64)], x: usize) -> Vec<Constraint> {
    let mut cycle = Vec::new();
    let mut y = x;
    loop {
        let (p, b) = parent[y];
        cycle.push(Constraint::new(y, p as usize, b));
        y = p as usize;
        if y == x {
            break;
        }
    }
    cycle.reverse();
    debug_assert!(
        cycle.iter().map(|c| i128::from(c.bound)).sum::<i128>() < 0,
        "parent cycle {cycle:?} is not negative"
    );
    cycle
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_system_is_feasible() {
        let sys = DifferenceConstraints::new(3, []);
        assert_eq!(sys.solve().unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn zero_vars() {
        let sys = DifferenceConstraints::new(0, []);
        assert!(sys.solve().unwrap().is_empty());
    }

    #[test]
    fn simple_feasible() {
        let sys = DifferenceConstraints::new(
            3,
            [
                Constraint::new(0, 1, 3),
                Constraint::new(1, 2, -2),
                Constraint::new(2, 0, 1),
            ],
        );
        let r = sys.solve().expect("feasible");
        assert!(r[0] - r[1] <= 3);
        assert!(r[1] - r[2] <= -2);
        assert!(r[2] - r[0] <= 1);
    }

    #[test]
    fn negative_cycle_detected() {
        let sys =
            DifferenceConstraints::new(2, [Constraint::new(0, 1, -1), Constraint::new(1, 0, 0)]);
        assert!(sys.solve().is_none());
        assert!(!sys.is_feasible());
    }

    #[test]
    fn negative_self_loop_detected() {
        let sys = DifferenceConstraints::new(1, [Constraint::new(0, 0, -1)]);
        assert!(sys.solve().is_none());
    }

    #[test]
    fn push_extends_system() {
        let mut sys = DifferenceConstraints::new(2, [Constraint::new(0, 1, 5)]);
        assert!(sys.is_feasible());
        sys.push(Constraint::new(1, 0, -6));
        assert!(!sys.is_feasible());
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let _ = DifferenceConstraints::new(1, [Constraint::new(0, 1, 0)]);
    }

    #[test]
    fn long_chain_of_tight_constraints() {
        // r0 ≤ r1 − 1 ≤ r2 − 2 ≤ ... forcing a spread of n−1.
        let n = 64;
        let mut cons = Vec::new();
        for i in 0..n - 1 {
            cons.push(Constraint::new(i, i + 1, -1));
        }
        let sys = DifferenceConstraints::new(n, cons);
        let r = sys.solve().expect("feasible");
        for i in 0..n - 1 {
            assert!(r[i] - r[i + 1] <= -1);
        }
        assert!(r[n - 1] - r[0] >= (n - 1) as i64);
    }

    /// Checks that `cycle` is a negative cycle of `sys`'s constraints, in
    /// cycle order.
    fn assert_negative_cycle(sys: &DifferenceConstraints, cycle: &[Constraint]) {
        assert!(!cycle.is_empty());
        for (i, c) in cycle.iter().enumerate() {
            assert!(sys.constraints().contains(c), "{c:?} is not in the system");
            let prev = cycle[(i + cycle.len() - 1) % cycle.len()];
            assert_eq!(c.v, prev.u, "cycle {cycle:?} is not in order");
        }
        assert!(cycle.iter().map(|c| c.bound).sum::<i64>() < 0, "{cycle:?}");
    }

    /// The queue-based solver must return *exactly* what the classic
    /// round-based Bellman–Ford returns — same feasibility verdict, same
    /// vector — on random systems from both sides of the feasibility
    /// boundary. (The solution is the unique greatest fixpoint of the
    /// relaxation operator below zero, so relaxation order must not
    /// matter; this pins it.) The
    /// larger cases are where the parent-cycle exit ends a probe before
    /// the path-length witness would: the solver makes the relaxations of
    /// a witness-only run in the same order, so it may stop earlier, never
    /// later, and every cycle it returns is negative.
    #[test]
    fn spfa_matches_round_based_reference() {
        fn reference(sys: &DifferenceConstraints, mut dist: Vec<i64>) -> Option<Vec<i64>> {
            let n = sys.num_vars();
            for round in 0..n {
                let mut changed = false;
                for c in sys.constraints() {
                    let cand = dist[c.v].saturating_add(c.bound);
                    if cand < dist[c.u] {
                        dist[c.u] = cand;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
                if round == n - 1 {
                    return None;
                }
            }
            let m = *dist.iter().min().unwrap_or(&0);
            Some(dist.iter().map(|d| d - m).collect())
        }
        /// Relaxations of the same queue order that ends only at the
        /// path-length witness (or at the fixpoint).
        fn witness_only_relaxations(sys: &DifferenceConstraints, mut dist: Vec<i64>) -> u64 {
            let n = sys.num_vars();
            let mut adj = vec![Vec::new(); n];
            for c in sys.constraints() {
                adj[c.v].push((c.u, c.bound));
            }
            let mut queue: std::collections::VecDeque<usize> = (0..n).collect();
            let (mut in_queue, mut path_len) = (vec![true; n], vec![1usize; n]);
            let mut relaxations = 0;
            while let Some(v) = queue.pop_front() {
                in_queue[v] = false;
                let (dv, lv) = (dist[v], path_len[v]);
                for &(u, b) in &adj[v] {
                    if dv.saturating_add(b) < dist[u] {
                        dist[u] = dv.saturating_add(b);
                        path_len[u] = lv + 1;
                        relaxations += 1;
                        if path_len[u] > n {
                            return relaxations;
                        }
                        if !in_queue[u] {
                            in_queue[u] = true;
                            queue.push_back(u);
                        }
                    }
                }
            }
            relaxations
        }
        // Deterministic xorshift so the cases are replayable.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut infeasible_seen, mut earlier_exits) = (0, 0);
        for case in 0..300 {
            let large = case >= 200;
            let (n, m, span, shift) = if large {
                let n = next() % 200 + 50;
                (n, 2 * n + next() % (2 * n), 60, 6)
            } else {
                let n = next() % 12 + 1;
                (n, next() % (4 * n + 1), 9, 3)
            };
            let (n, m) = (n as usize, m as usize);
            let cons: Vec<Constraint> = (0..m)
                .map(|_| {
                    Constraint::new(
                        (next() % n as u64) as usize,
                        (next() % n as u64) as usize,
                        (next() % span) as i64 - shift,
                    )
                })
                .collect();
            let sys = DifferenceConstraints::new(n, cons);
            let (cold, relaxations) = sys.run();
            assert_eq!(cold.clone().ok(), reference(&sys, vec![0; n]));
            if let Err(cycle) = &cold {
                if !cycle.is_empty() {
                    assert_negative_cycle(&sys, cycle);
                }
            }
            if cold.is_err() {
                infeasible_seen += 1;
                let witness = witness_only_relaxations(&sys, vec![0; n]);
                assert!(relaxations <= witness, "{relaxations} > {witness}");
                earlier_exits += usize::from(large && relaxations < witness);
            }
        }
        assert!(infeasible_seen > 40, "want both sides: {infeasible_seen}");
        assert!(earlier_exits > 10, "parent-cycle exits: {earlier_exits}");
    }

    /// A 2-cycle feeding a 10,000-variable chain: the path-length witness
    /// needs about `n / 2` laps of the cycle, each lowering the chain again
    /// (~`n² / 8` relaxations), while the parent pointers close the cycle in
    /// its first lap and the first sweep, after `n` relaxations, finds it.
    #[test]
    fn short_negative_cycle_exits_within_a_few_sweeps() {
        let n = 10_000;
        let mut cons: Vec<Constraint> = (0..n - 1).map(|i| Constraint::new(i + 1, i, 0)).collect();
        cons.push(Constraint::new(0, 1, -1));
        let sys = DifferenceConstraints::new(n, cons);
        let (verdict, relaxations) = sys.run();
        assert!(relaxations <= 2 * n as u64, "{relaxations} relaxations");
        let cycle = verdict.expect_err("infeasible");
        assert_negative_cycle(&sys, &cycle);
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn solution_is_shifted_to_zero_minimum() {
        let sys =
            DifferenceConstraints::new(2, [Constraint::new(0, 1, -5), Constraint::new(1, 0, 10)]);
        let r = sys.solve().unwrap();
        assert_eq!(*r.iter().min().unwrap(), 0);
    }
}
