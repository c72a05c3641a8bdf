//! An LP-duality optimality certificate for difference-constraint
//! programs, checked from the constraint list alone.

use crate::Constraint;

/// Accepts `r` as an optimal solution of
/// `min Σ cost[v]·r[v]  s.t.  r[u] − r[v] ≤ bound` (one bound per entry of
/// `constraints`) only if `flows` witnesses it.
///
/// Each flow entry `(c, f)` sends `f` units along constraint `c`, from
/// `c.u` to `c.v`. The pair passes when:
///
/// 1. `r` meets every constraint;
/// 2. every entry names a constraint of the system at the tightest bound
///    among its parallel `(u, v)` constraints, and carries `f ≥ 0`;
/// 3. positive flow runs only on constraints that are tight at `r`;
/// 4. the net inflow at each `v` equals `cost[v]`.
///
/// (1) makes `r` primal feasible; (2) and (4) make the flow feasible for
/// the dual transshipment; (3) is complementary slackness, so
/// `Σ cost·r = −Σ f·bound` and, by LP duality, `r` is optimal — whatever
/// produced the pair. Nothing here depends on how a solver reduced the
/// program, so the check does not share that reduction's bugs.
///
/// # Errors
///
/// A message naming the first condition that fails.
pub fn check_optimal(
    num_vars: usize,
    constraints: &[Constraint],
    cost: &[i64],
    r: &[i64],
    flows: &[(Constraint, i64)],
) -> Result<(), String> {
    check_flows(num_vars, constraints, cost, r, flows.iter().copied())
}

/// [`check_optimal`] over flow entries as they are produced, so that a
/// solver certifies itself without collecting its flow. Besides the
/// inflow per variable it holds 4 bytes a constraint: the constraints'
/// indices in `(u, v)` order, where each flow entry looks up its parallel
/// bounds.
pub(crate) fn check_flows(
    num_vars: usize,
    constraints: &[Constraint],
    cost: &[i64],
    r: &[i64],
    flows: impl IntoIterator<Item = (Constraint, i64)>,
) -> Result<(), String> {
    if cost.len() != num_vars || r.len() != num_vars {
        return Err(format!(
            "{} costs and {} lags for {num_vars} variables",
            cost.len(),
            r.len()
        ));
    }
    // i128 throughout: lags, bounds and flows are arbitrary i64s, and the
    // checker must not wrap where a solver might have.
    let slack = |c: &Constraint| i128::from(c.bound) - (i128::from(r[c.u]) - i128::from(r[c.v]));
    for c in constraints {
        if c.u >= num_vars || c.v >= num_vars {
            return Err(format!("{c:?} names a variable >= {num_vars}"));
        }
        if slack(c) < 0 {
            return Err(format!("r violates {c:?} by {}", -slack(c)));
        }
    }
    let pair = |i: u32| {
        let c = &constraints[i as usize];
        (c.u, c.v)
    };
    let mut order: Vec<u32> = (0..constraints.len() as u32).collect();
    order.sort_unstable_by_key(|&i| pair(i));
    let mut inflow = vec![0i128; num_vars];
    for (c, f) in flows {
        let first = order.partition_point(|&i| pair(i) < (c.u, c.v));
        let tightest = order[first..]
            .iter()
            .take_while(|&&i| pair(i) == (c.u, c.v))
            .map(|&i| constraints[i as usize].bound)
            .min();
        if tightest != Some(c.bound) {
            return Err(format!("flow on {c:?}, not a tightest constraint"));
        }
        if f < 0 {
            return Err(format!("negative flow {f} on {c:?}"));
        }
        if f > 0 && slack(&c) != 0 {
            return Err(format!("flow {f} on {c:?}, which is slack at r"));
        }
        inflow[c.v] += i128::from(f);
        inflow[c.u] -= i128::from(f);
    }
    match (0..num_vars).find(|&v| inflow[v] != i128::from(cost[v])) {
        Some(v) => Err(format!(
            "net inflow {} at variable {v}, cost {}",
            inflow[v], cost[v]
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::tests::{system, Triple, DIAMOND};
    use crate::DualSolver;

    #[test]
    fn tampered_pairs_are_rejected() {
        // The diamond plus a looser parallel copy of r0 − r1 ≤ 1. The
        // solve routes one unit 0 → 1 → 3; r2 stays free in [r0 − 3, r0 − 1].
        let mut cons = system(&DIAMOND);
        cons.push(Constraint::new(0, 1, 5));
        let cost = [-1, 0, 0, 1];
        let mut solver = DualSolver::new(4, &cons).unwrap();
        let r = solver.solve(&cost).unwrap();
        let flows = solver.flows();
        assert_eq!(check_optimal(4, &cons, &cost, &r, &flows), Ok(()));

        // Each lag with nonzero cost one step either way, then r2 past r0,
        // which breaks only constraints that carry no flow.
        let lags = [(0, -1), (0, 1), (3, -1), (3, 1), (2, r[0] + 1 - r[2])];
        for (v, step) in lags {
            let mut moved = r.clone();
            moved[v] += step;
            assert!(
                check_optimal(4, &cons, &cost, &moved, &flows).is_err(),
                "r{v} += {step}"
            );
        }

        // (tamper, `df` more units on each `(u, v, bound)` entry)
        let tampers: [(&str, &[(Triple, i64)]); 5] = [
            ("a unit removed", &[((0, 1, 1), -1)]),
            // one unit around 0 → 1 → 0 keeps every balance; r1 − r0 ≤ 0 is slack
            (
                "flow on a slack constraint",
                &[((0, 1, 1), 1), ((1, 0, 0), 1)],
            ),
            // the unit rerouted onto the implied, tight r0 − r3 ≤ 3
            (
                "pair outside",
                &[((0, 1, 1), -1), ((1, 3, 2), -1), ((0, 3, 3), 1)],
            ),
            ("looser parallel bound", &[((0, 1, 5), 0)]),
            // minus one unit around 0 → 1 → 0 keeps every balance
            ("negative flow", &[((0, 1, 1), -1), ((1, 0, 0), -1)]),
        ];
        for (name, deltas) in tampers {
            let mut tampered = flows.clone();
            for &((u, v, bound), df) in deltas {
                let c = Constraint::new(u, v, bound);
                match tampered.iter_mut().find(|(e, _)| *e == c) {
                    Some(entry) => entry.1 += df,
                    None => tampered.push((c, df)),
                }
            }
            assert!(
                check_optimal(4, &cons, &cost, &r, &tampered).is_err(),
                "{name}"
            );
        }
    }
}
