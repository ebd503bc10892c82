//! Heuristic generalized hypertree decompositions.
//!
//! The exact `k-decomp` engine ([`hypertree_core::kdecomp`]) is complete
//! but exponential in `k` — beyond a few dozen edges it is out of reach.
//! This crate is the other half of the bargain, in the spirit of
//! Fischl–Gottlob–Pichler's GHD work and Greco–Scarcello's greedy
//! strategies: *cheap* decompositions from vertex elimination orderings
//! that still bound evaluation cost, because a width-`w` GHD feeds the
//! same Lemma 4.6 pipeline with node relations of size `O(r^w)`.
//!
//! * [`order`] — min-degree, min-fill, and cover-greedy elimination
//!   orderings (the last scores by greedy *edge-cover* size, the hypertree
//!   objective, reusing the exact engine's candidate-ranking idea);
//! * [`bucket`] — bucket elimination: order → GHD
//!   ([`HypertreeDecomposition`] validated in
//!   [`ValidityMode::Generalized`]);
//! * [`improve`] — local improvement by re-eliminating the widest bag's
//!   neighbourhood under alternative orderings;
//! * [`decompose_auto`] — the full funnel: heuristic upper bound, then
//!   *bounded* exact search seeded with it (early exit on a matching
//!   lower bound), falling back to the heuristic witness when the budget
//!   runs out. The first path in this workspace from "hypergraph too big
//!   for exact search" to "validated decomposition".

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub mod bucket;
pub mod improve;
pub mod order;

pub use bucket::decompose_with_order;
pub use improve::improve_order;

use hypergraph::{Hypergraph, VertexId};
use hypertree_core::kdecomp::{CandidateMode, Solver};
use hypertree_core::{opt, HypertreeDecomposition, QueryBudget, QueryError, ValidityMode};
use std::time::Instant;

/// The ordering heuristics this crate ships.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OrderingHeuristic {
    /// Fewest live neighbours first.
    MinDegree,
    /// Fewest fill edges first.
    MinFill,
    /// Cheapest greedy bag cover first (the hypertree-aware ordering).
    CoverGreedy,
}

/// All ordering heuristics, in comparison order.
pub const ALL_ORDERINGS: [OrderingHeuristic; 3] = [
    OrderingHeuristic::MinDegree,
    OrderingHeuristic::MinFill,
    OrderingHeuristic::CoverGreedy,
];

impl OrderingHeuristic {
    /// Stable lowercase name (bench entries, logs).
    pub fn name(self) -> &'static str {
        match self {
            OrderingHeuristic::MinDegree => "min-degree",
            OrderingHeuristic::MinFill => "min-fill",
            OrderingHeuristic::CoverGreedy => "cover-greedy",
        }
    }
}

/// The elimination order the given heuristic produces for `h` (over the
/// edge-incident vertices only).
pub fn elimination_order(h: &Hypergraph, heuristic: OrderingHeuristic) -> Vec<VertexId> {
    match heuristic {
        OrderingHeuristic::MinDegree => order::min_degree_order(h),
        OrderingHeuristic::MinFill => order::min_fill_order(h),
        OrderingHeuristic::CoverGreedy => order::cover_greedy_order(h),
    }
}

/// The GHD the given ordering heuristic produces for `h` (no improvement
/// pass). Always validates in [`ValidityMode::Generalized`].
pub fn decompose_with(h: &Hypergraph, heuristic: OrderingHeuristic) -> HypertreeDecomposition {
    decompose_with_order(h, &elimination_order(h, heuristic))
}

/// The best heuristic GHD for `h`: every ordering of [`ALL_ORDERINGS`] is
/// assembled and locally improved, and the narrowest result wins (ties:
/// earlier ordering).
pub fn best_decomposition(h: &Hypergraph) -> HypertreeDecomposition {
    ALL_ORDERINGS
        .iter()
        .map(|&heur| {
            let order = elimination_order(h, heur);
            improve_order(h, &order, improve::DEFAULT_ROUNDS).0
        })
        .min_by_key(HypertreeDecomposition::width)
        .expect("ALL_ORDERINGS is non-empty")
}

/// Upper bound on the generalized hypertree width of `h`, from
/// [`best_decomposition`].
pub fn ghw_upper_bound(h: &Hypergraph) -> usize {
    best_decomposition(h).width()
}

/// How [`decompose_auto`] arrived at its decomposition.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Found by the bounded exact engine: width is exactly `hw(h)`.
    Exact,
    /// The heuristic witness, *proven* width-optimal — it met the lower
    /// bound, or the exact engine refuted every smaller width within
    /// budget (only claimed when the witness is a full hypertree
    /// decomposition, so its width really bounds `hw`).
    HeuristicOptimal,
    /// The heuristic witness; the exact engine ran out of budget before
    /// confirming or improving it. Valid for evaluation, width not proven
    /// minimal.
    Heuristic,
}

/// A decomposition plus the strength of the claim behind it.
#[derive(Clone, Debug)]
pub struct AutoDecomposition {
    /// The decomposition — always GHD-valid; a full hypertree
    /// decomposition whenever `provenance` is [`Provenance::Exact`].
    pub hd: HypertreeDecomposition,
    /// How it was obtained.
    pub provenance: Provenance,
}

/// Decompose `h` whatever its size: heuristic GHD first, then a bounded
/// exact search seeded with the heuristic width — deepening only over
/// `lower_bound..=width(-1)` and spending at most `exact_steps` candidate
/// examinations per level. Small instances come back exact; large ones
/// fall back to the validated heuristic witness instead of hanging.
pub fn decompose_auto(h: &Hypergraph, exact_steps: u64) -> AutoDecomposition {
    decompose_auto_within(h, exact_steps, None, &QueryBudget::unlimited())
        .expect("an unlimited budget never trips")
}

/// [`decompose_auto`] under a [`QueryBudget`] — the planning tier of the
/// degradation ladder.
///
/// The heuristic pass runs first and is polled between orderings: a
/// budget that trips before *any* witness exists unwinds with the check's
/// error (there is no plan to degrade to). Once the heuristic witness is
/// in hand, the bounded exact search runs under the step budget *and* a
/// wall-clock deadline — the earlier of `exact_deadline` (the search's
/// *share* of the request deadline, chosen by the caller) and the
/// budget's own deadline. An exact search that trips either bound falls
/// back to the validated heuristic witness ([`Provenance::Heuristic`])
/// instead of erroring; only cancellation aborts outright at that point.
pub fn decompose_auto_within(
    h: &Hypergraph,
    exact_steps: u64,
    exact_deadline: Option<Instant>,
    budget: &QueryBudget,
) -> Result<AutoDecomposition, QueryError> {
    const PHASE: &str = "plan";
    let mut witnesses = Vec::with_capacity(ALL_ORDERINGS.len());
    for &heur in &ALL_ORDERINGS {
        budget.check(PHASE)?;
        let order = elimination_order(h, heur);
        witnesses.push(improve_order(h, &order, improve::DEFAULT_ROUNDS).0);
    }
    let ghd = witnesses
        .into_iter()
        .min_by_key(HypertreeDecomposition::width)
        .expect("ALL_ORDERINGS is non-empty");
    debug_assert!(ghd.violations_with(h, ValidityMode::Generalized).is_empty());
    budget.check(PHASE)?;
    let lb = opt::hypertree_width_lower_bound(h);
    if ghd.width() <= lb {
        // Nothing can be narrower; the witness is optimal as it stands.
        return Ok(AutoDecomposition {
            hd: ghd,
            provenance: Provenance::HeuristicOptimal,
        });
    }
    // When the witness happens to satisfy the descendant condition too, it
    // is a full HD and `hw(h) ≤ width`: the last level the exact engine
    // needs is width-1. Otherwise only `ghw ≤ width` is known and level
    // `width` itself is still worth deciding.
    let is_full_hd = ghd.validate(h).is_ok();
    let hi = if is_full_hd {
        ghd.width() - 1
    } else {
        ghd.width()
    };
    let solver_deadline = match (exact_deadline, budget.deadline()) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    for k in lb.max(1)..=hi {
        match budget.check(PHASE) {
            Ok(()) => {}
            Err(QueryError::Cancelled) => return Err(QueryError::Cancelled),
            // A witness exists: a passed deadline degrades to it rather
            // than failing the request during planning.
            Err(_) => {
                return Ok(AutoDecomposition {
                    hd: ghd,
                    provenance: Provenance::Heuristic,
                })
            }
        }
        let mut solver = Solver::with_budget(h, k, CandidateMode::Pruned, exact_steps);
        solver.set_deadline(solver_deadline);
        match solver.decide_bounded() {
            Some(true) => {
                let hd = solver
                    .decompose()
                    .expect("a positive level admits a decomposition");
                return Ok(AutoDecomposition {
                    hd,
                    provenance: Provenance::Exact,
                });
            }
            Some(false) => continue,
            None => {
                return Ok(AutoDecomposition {
                    hd: ghd,
                    provenance: Provenance::Heuristic,
                })
            }
        }
    }
    // Every smaller width refuted within budget.
    Ok(AutoDecomposition {
        hd: ghd,
        provenance: if is_full_hd {
            Provenance::HeuristicOptimal
        } else {
            Provenance::Heuristic
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_decomposition_is_no_wider_than_any_single_ordering() {
        let h = Hypergraph::from_edge_lists(
            7,
            &[
                &[0, 1, 2],
                &[2, 3],
                &[3, 4],
                &[4, 5],
                &[5, 6],
                &[6, 0],
                &[1, 4],
            ],
        );
        let best = best_decomposition(&h);
        assert_eq!(best.validate_ghd(&h), Ok(()));
        for heur in ALL_ORDERINGS {
            assert!(best.width() <= decompose_with(&h, heur).width());
        }
    }

    #[test]
    fn auto_is_exact_on_small_instances() {
        let triangle = Hypergraph::from_edge_lists(3, &[&[0, 1], &[1, 2], &[0, 2]]);
        let auto = decompose_auto(&triangle, 1_000_000);
        assert_eq!(auto.hd.width(), 2);
        assert!(matches!(
            auto.provenance,
            Provenance::Exact | Provenance::HeuristicOptimal
        ));
        assert_eq!(auto.hd.validate_ghd(&triangle), Ok(()));

        let path = Hypergraph::from_edge_lists(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        let auto = decompose_auto(&path, 1_000_000);
        assert_eq!(auto.hd.width(), 1, "acyclic instances reach width 1");

        let empty = Hypergraph::from_edge_lists(2, &[]);
        let auto = decompose_auto(&empty, 1_000);
        assert_eq!(auto.hd.width(), 0);
        assert_eq!(auto.provenance, Provenance::HeuristicOptimal);
    }

    #[test]
    fn auto_falls_back_to_the_heuristic_under_a_starved_budget() {
        // 4x4 grid: cyclic, hw 3-ish; one candidate step decides nothing.
        let q = workloads::families::grid(4, 4);
        let h = q.hypergraph();
        let auto = decompose_auto(&h, 1);
        assert_eq!(auto.provenance, Provenance::Heuristic);
        assert_eq!(auto.hd.validate_ghd(&h), Ok(()));
        assert!(auto.hd.width() >= 2);
    }

    #[test]
    fn governed_planning_degrades_and_cancels() {
        let q = workloads::families::grid(4, 4);
        let h = q.hypergraph();
        // Unlimited budget: identical to the budget-less funnel.
        let plain = decompose_auto(&h, 1);
        let governed = decompose_auto_within(&h, 1, None, &QueryBudget::unlimited()).unwrap();
        assert_eq!(governed.provenance, plain.provenance);
        assert_eq!(governed.hd.width(), plain.hd.width());
        // An already-elapsed exact-search deadline: the heuristic witness
        // still comes back, marked as such.
        let auto = decompose_auto_within(
            &h,
            u64::MAX,
            Some(Instant::now()),
            &QueryBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(auto.provenance, Provenance::Heuristic);
        assert_eq!(auto.hd.validate_ghd(&h), Ok(()));
        // A budget that trips before any witness exists is a hard error.
        let b = QueryBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        assert_eq!(
            decompose_auto_within(&h, 1, None, &b).unwrap_err(),
            QueryError::DeadlineExceeded { phase: "plan" }
        );
        // Cancellation aborts outright, witness or not.
        let b = QueryBudget::unlimited();
        b.cancel();
        assert_eq!(
            decompose_auto_within(&h, 1, None, &b).unwrap_err(),
            QueryError::Cancelled
        );
    }

    #[test]
    fn ordering_names_are_stable() {
        assert_eq!(
            ALL_ORDERINGS.map(OrderingHeuristic::name),
            ["min-degree", "min-fill", "cover-greedy"]
        );
    }
}
