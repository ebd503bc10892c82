//! Budget-governed evaluation: the execution context every entry point
//! of the pipeline runs under.
//!
//! An [`ExecCtx`] carries one request's [`QueryBudget`] and
//! [`obs::Tracer`]. Each operation has exactly one body — the
//! `*_in(…, ctx)` methods on [`Pipeline`](crate::Pipeline) and
//! [`Strategy`](crate::Strategy), [`crate::reduction::reduce_in`] — and
//! the plain-signature entry points (`Pipeline::boolean`,
//! `Strategy::enumerate`, `counting::count_with`, …) are one-line
//! delegations that run it under [`ExecCtx::unlimited`]. So a request
//! runs the same code whether or not it is governed or traced.
//!
//! This module is also the bridge between the two halves of the
//! governance stack, which cannot see each other directly:
//!
//! * `hypertree_core::budget` defines [`QueryBudget`] / [`QueryError`]
//!   but sits *above* the relational kernels in the crate order;
//! * `relation::meter` defines the [`CostMeter`] hook the kernels poll
//!   but knows nothing about budgets.
//!
//! The (crate-internal) `BudgetMeter` adapts one to the other and is
//! threaded through every long-running loop: semijoin sweeps, the
//! enumerate join phase, the counting DP, and the Lemma 4.6 node joins
//! and projections. Between node steps the budget is checked directly,
//! so even a pipeline whose individual steps are small cannot overrun a
//! deadline by more than one step.
//!
//! **Degradation ladder for `enumerate`.** A deadline or cancellation
//! trip always unwinds with an error — a caller out of time has no use
//! for partial rows. A *memory* trip during the output-producing join
//! phase instead degrades: the join keeps the prefix it already built
//! (a sound subset of the answers — joins and projections are monotone)
//! and the run completes with `truncated == true`, ignoring further
//! memory charges for the now-bounded leftover work. Memory trips in the
//! reduce/semijoin phases, or in `boolean`/`count` runs (whose outputs
//! are scalars that must be exact), stay hard errors.

use hypertree_core::{QueryBudget, QueryError};
use relation::meter::{CostMeter, Trip};
use relation::Relation;

/// What one evaluation runs under: the request's budget (deadline, byte
/// quota, cancellation) and its tracer (phase spans, row accounting; a
/// disabled tracer costs one branch per would-be span).
#[derive(Clone, Copy)]
pub struct ExecCtx<'a> {
    /// The budget every metered kernel and node step polls.
    pub budget: &'a QueryBudget,
    /// Where spans, row counts and per-node rows are recorded.
    pub tracer: &'a obs::Tracer,
}

impl<'a> ExecCtx<'a> {
    /// A context over `budget` and `tracer`.
    pub fn new(budget: &'a QueryBudget, tracer: &'a obs::Tracer) -> Self {
        ExecCtx { budget, tracer }
    }

    /// Run `run` under a fresh unlimited budget with tracing off — the
    /// context of every plain-signature entry point.
    pub fn unlimited<T>(run: impl FnOnce(ExecCtx<'_>) -> T) -> T {
        let budget = QueryBudget::unlimited();
        let tracer = obs::Tracer::off();
        run(ExecCtx::new(&budget, &tracer))
    }

    /// [`ExecCtx::unlimited`] for a run whose only errors are budget
    /// trips. A fresh unlimited budget has no deadline or quota, and no
    /// one else holds it to cancel it, so the run cannot fail.
    pub fn never_trips<T>(run: impl FnOnce(ExecCtx<'_>) -> Result<T, QueryError>) -> T {
        match Self::unlimited(run) {
            Ok(v) => v,
            // archlint::allow(panic-free-request-path, reason = "a fresh unlimited budget has no deadline or quota and no other holder to cancel it, so no check can fail")
            Err(e) => unreachable!("an unlimited budget tripped: {e}"),
        }
    }

    /// The kernel meter for `phase`, tapping scanned rows into the
    /// tracer.
    pub(crate) fn meter(self, phase: &'static str) -> BudgetMeter<'a> {
        BudgetMeter::new(self.budget, phase).with_tap(self.tracer.io())
    }
}

/// [`QueryBudget`] seen through the kernels' [`CostMeter`] hook.
///
/// `tick` maps deadline/cancellation onto [`Trip`]; `charge_bytes`
/// accounts into the budget's byte gauge and trips its quota — unless
/// `enforce_memory` is off, which the join phase uses after a truncation
/// (the quota has by then already tripped once; the remaining work is
/// bounded by the truncated prefix and still deadline-checked).
pub(crate) struct BudgetMeter<'a> {
    budget: &'a QueryBudget,
    phase: &'static str,
    enforce_memory: bool,
    // Rows-scanned tap for tracing: the kernels already report chunk row
    // counts through `tick`, so the tracer rides the existing hook. A
    // disabled tap ([`obs::IoTap::disabled`]) is a single branch.
    tap: obs::IoTap<'a>,
    // Second tap scoped to the plan node the metered step works on, so
    // EXPLAIN ANALYZE can attribute scan work per node.
    node_tap: obs::IoTap<'a>,
}

impl<'a> BudgetMeter<'a> {
    fn new(budget: &'a QueryBudget, phase: &'static str) -> Self {
        BudgetMeter {
            budget,
            phase,
            enforce_memory: true,
            tap: obs::IoTap::disabled(),
            node_tap: obs::IoTap::disabled(),
        }
    }

    fn with_tap(mut self, tap: obs::IoTap<'a>) -> Self {
        self.tap = tap;
        self
    }

    pub(crate) fn with_node_tap(mut self, tap: obs::IoTap<'a>) -> Self {
        self.node_tap = tap;
        self
    }

    /// Stop enforcing the byte quota (charges are still accounted).
    pub(crate) fn unenforced(mut self) -> Self {
        self.enforce_memory = false;
        self
    }
}

impl CostMeter for BudgetMeter<'_> {
    #[inline]
    fn tick(&self, units: u64) -> Result<(), Trip> {
        self.tap.add_rows(units);
        self.node_tap.add_rows(units);
        match self.budget.check(self.phase) {
            Ok(()) => Ok(()),
            Err(QueryError::Cancelled) => Err(Trip::Cancelled),
            Err(_) => Err(Trip::Deadline),
        }
    }

    #[inline]
    fn charge_bytes(&self, bytes: u64) -> Result<(), Trip> {
        match self.budget.charge_bytes(bytes) {
            Ok(()) => Ok(()),
            Err(QueryError::MemoryBudgetExceeded { bytes }) if self.enforce_memory => {
                Err(Trip::Memory { bytes })
            }
            Err(_) => Ok(()),
        }
    }
}

/// Record every node relation's current size as its pipeline-entry row
/// count (one branch per node when tracing is off).
pub(crate) fn note_nodes_in(obs: &obs::Tracer, rels: &[Relation]) {
    if obs.enabled() {
        obs.init_nodes(rels.len());
        for (i, r) in rels.iter().enumerate() {
            obs.note_node_rows_in(i, r.len() as u64);
        }
    }
}

/// Record every node relation's current size as its survivor count.
pub(crate) fn note_nodes_out(obs: &obs::Tracer, rels: &[Relation]) {
    if obs.enabled() {
        for (i, r) in rels.iter().enumerate() {
            obs.note_node_rows_out(i, r.len() as u64);
        }
    }
}

/// Map a kernel [`Trip`] back onto the typed error taxonomy, restoring
/// the phase context the meter hop dropped.
pub(crate) fn trip_to_error(trip: Trip, phase: &'static str) -> QueryError {
    match trip {
        Trip::Deadline => QueryError::DeadlineExceeded { phase },
        Trip::Memory { bytes } => QueryError::MemoryBudgetExceeded { bytes },
        Trip::Cancelled => QueryError::Cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvalError, Strategy};
    use cq::parse_query;
    use relation::Database;
    use std::time::Duration;

    /// Run `run` under `budget` with tracing off.
    fn under<T>(budget: &QueryBudget, run: impl FnOnce(ExecCtx<'_>) -> T) -> T {
        run(ExecCtx::new(budget, &obs::Tracer::off()))
    }

    fn star_db(n: u64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.add_fact("hub", &[i % 40, i % 7, i % 5]);
            db.add_fact("p", &[i % 9]);
            db.add_fact("p2", &[i % 7]);
            db.add_fact("p3", &[i % 4]);
        }
        db
    }

    #[test]
    fn unlimited_budget_matches_ungoverned_answers() {
        let q = parse_query("ans(A,B) :- hub(A,B,C), p(A), p2(B), p3(C).").unwrap();
        let db = star_db(300);
        // A roomy budget (live deadline and quota) answers exactly like
        // the plain-signature entry points, row order included.
        let budget = QueryBudget::unlimited()
            .with_deadline(Duration::from_secs(600))
            .with_byte_quota(1 << 40);
        let plan = Strategy::plan(&q);
        assert_eq!(
            under(&budget, |ctx| plan.boolean_in(&q, &db, ctx)).unwrap(),
            plan.boolean(&q, &db).unwrap()
        );
        let (rows, truncated) = under(&budget, |ctx| plan.enumerate_in(&q, &db, ctx)).unwrap();
        assert!(!truncated);
        let plain = plan.enumerate(&q, &db).unwrap();
        assert_eq!(rows, plain);
        assert_eq!(
            rows.rows().collect::<Vec<_>>(),
            plain.rows().collect::<Vec<_>>()
        );
        assert_eq!(
            under(&budget, |ctx| plan.count_in(&q, &db, ctx)).unwrap(),
            crate::counting::count_with(&plan, &q, &db).unwrap()
        );
        assert!(budget.bytes_charged() > 0, "the kernels charged the budget");
    }

    #[test]
    fn governed_cyclic_queries_agree_too() {
        let q = parse_query("ans(X,Y,Z) :- r(X,Y), s(Y,Z), t(Z,X).").unwrap();
        let mut db = Database::new();
        for i in 0..30u64 {
            db.add_fact("r", &[i % 6, (i + 1) % 6]);
            db.add_fact("s", &[(i + 1) % 6, (i + 2) % 6]);
            db.add_fact("t", &[(i + 2) % 6, i % 6]);
        }
        let plan = Strategy::plan(&q);
        assert!(matches!(plan, Strategy::Hypertree(_)));
        let budget = QueryBudget::unlimited().with_byte_quota(1 << 40);
        assert_eq!(
            under(&budget, |ctx| plan.boolean_in(&q, &db, ctx)).unwrap(),
            plan.boolean(&q, &db).unwrap()
        );
        let (rows, truncated) = under(&budget, |ctx| plan.enumerate_in(&q, &db, ctx)).unwrap();
        assert!(!truncated);
        assert_eq!(rows, plan.enumerate(&q, &db).unwrap());
    }

    #[test]
    fn observed_runs_attribute_rows_per_node() {
        let q = parse_query("ans(X,Y,Z) :- r(X,Y), s(Y,Z), t(Z,X).").unwrap();
        let mut db = Database::new();
        for i in 0..30u64 {
            db.add_fact("r", &[i % 6, (i + 1) % 6]);
            db.add_fact("s", &[(i + 1) % 6, (i + 2) % 6]);
            db.add_fact("t", &[(i + 2) % 6, i % 6]);
        }
        let plan = Strategy::plan(&q);
        let budget = QueryBudget::unlimited();
        let obs = obs::Tracer::on();
        plan.enumerate_in(&q, &db, ExecCtx::new(&budget, &obs))
            .unwrap();
        let tr = obs.finish(obs::TraceOutcome::default()).unwrap();
        assert!(!tr.node_rows.is_empty(), "node table never declared");
        assert!(tr.node_rows.iter().any(|nr| nr.rows_in > 0));
        assert!(tr.node_rows.iter().any(|nr| nr.rows_scanned > 0));
        for nr in &tr.node_rows {
            // Semijoins only filter.
            assert!(nr.rows_out <= nr.rows_in, "survivors exceed input");
        }
    }

    #[test]
    fn an_elapsed_deadline_errors_with_the_tripping_phase() {
        let q = parse_query("ans :- hub(A,B,C), p(A), p2(B), p3(C).").unwrap();
        let db = star_db(200);
        let budget = QueryBudget::unlimited().with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        let plan = Strategy::plan(&q);
        let err = under(&budget, |ctx| plan.boolean_in(&q, &db, ctx)).unwrap_err();
        assert!(matches!(
            err,
            EvalError::Budget(QueryError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn cancellation_unwinds_as_cancelled() {
        let q = parse_query("ans :- hub(A,B,C), p(A), p2(B), p3(C).").unwrap();
        let db = star_db(200);
        let budget = QueryBudget::unlimited();
        budget.cancel();
        let plan = Strategy::plan(&q);
        let err = under(&budget, |ctx| plan.boolean_in(&q, &db, ctx)).unwrap_err();
        assert_eq!(err, EvalError::Budget(QueryError::Cancelled));
    }

    #[test]
    fn enumerate_degrades_to_a_truncated_sound_subset_on_memory_trips() {
        // A fat cartesian-ish output: r(A) × s(B) through a shared hub.
        let mut b = cq::ConjunctiveQuery::builder();
        b.atom_vars("r", &["H", "A"]);
        b.atom_vars("s", &["H", "B"]);
        b.head("ans", &["A", "B"]);
        let q = b.build();
        let mut db = Database::new();
        for i in 0..200u64 {
            db.add_fact("r", &[1, i]);
            db.add_fact("s", &[1, i]);
        }
        let plan = Strategy::plan(&q);
        let full = plan.enumerate(&q, &db).unwrap();
        assert_eq!(full.len(), 40_000);
        // A quota big enough for the inputs but not the 40k-row output.
        let budget = QueryBudget::unlimited().with_byte_quota(150 * 1024);
        let (partial, truncated) = under(&budget, |ctx| plan.enumerate_in(&q, &db, ctx)).unwrap();
        assert!(truncated, "the quota must trip");
        assert!(partial.len() < full.len());
        // Soundness: every returned row is a real answer.
        for row in partial.rows() {
            assert!(full.contains_row(row), "unsound truncated row {row:?}");
        }
        // Counting under the same quota is a hard error, never a wrong
        // number.
        let budget = QueryBudget::unlimited().with_byte_quota(16);
        let err = under(&budget, |ctx| plan.count_in(&q, &db, ctx)).unwrap_err();
        assert!(matches!(
            err,
            EvalError::Budget(QueryError::MemoryBudgetExceeded { .. })
        ));
    }
}
