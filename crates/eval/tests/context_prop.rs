//! The context-equivalence property: an operation runs one body whatever
//! context it runs under. For any query and database the generators
//! produce, under a join-tree (or exact decomposition) plan and a
//! heuristic decomposition plan, the contexts
//!
//! * unlimited (the plain-signature entry points' context),
//! * a roomy deadline plus byte quota,
//! * a tracer that records everything,
//! * tracing plus the roomy budget
//!
//! give byte-identical answers for all three operations — rows in the
//! same order, the same saturating count — and those answers equal
//! [`eval::naive`]'s full joins.

use cq::ConjunctiveQuery;
use eval::naive::{self, JoinOrder, NaiveError};
use eval::{ExecCtx, Strategy};
use hypergraph::VertexId;
use hypertree_core::QueryBudget;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use relation::{Database, Relation, Value};
use std::time::Duration;
use workloads::random;

/// Rebuild `q` (the generators emit Boolean queries) with up to `head_k`
/// of its body variables as the head, so enumeration has real columns.
fn with_head(q: &ConjunctiveQuery, head_k: usize) -> ConjunctiveQuery {
    let mut b = ConjunctiveQuery::builder();
    let vars: Vec<VertexId> = (0..q.num_vars()).map(hypergraph::Ix::new).collect();
    for &v in &vars {
        b.var(q.var_name(v));
    }
    for atom in q.atoms() {
        b.atom(atom.predicate.clone(), atom.terms.clone());
    }
    // Only variables that occur in the body are safe head variables (a
    // random hypergraph may leave a vertex out of every edge).
    let occurring: Vec<&str> = vars
        .iter()
        .filter(|&&v| q.atoms().iter().any(|a| a.variables().contains(&v)))
        .map(|&v| q.var_name(v))
        .collect();
    let head: Vec<&str> = occurring.into_iter().take(head_k).collect();
    if !head.is_empty() {
        b.head("ans", &head);
    }
    b.build()
}

/// The answers of one context: Boolean, enumerated rows in order, count.
type Answers = (bool, Vec<Vec<Value>>, u128);

/// Run all three operations of `plan`, each under a fresh context that
/// is traced and/or carries a roomy budget.
fn run(
    plan: &Strategy,
    q: &ConjunctiveQuery,
    db: &Database,
    traced: bool,
    roomy: bool,
) -> Result<Answers, TestCaseError> {
    let budget = || match roomy {
        true => QueryBudget::unlimited()
            .with_deadline(Duration::from_secs(600))
            .with_byte_quota(1 << 40),
        false => QueryBudget::unlimited(),
    };
    let tracer = || match traced {
        true => obs::Tracer::on(),
        false => obs::Tracer::off(),
    };
    let fail = |e: eval::EvalError| TestCaseError::Fail(format!("{e} on {q}"));
    let (b, t) = (budget(), tracer());
    let boolean = plan.boolean_in(q, db, ExecCtx::new(&b, &t)).map_err(fail)?;
    let (b, t) = (budget(), tracer());
    let (rows, truncated) = plan
        .enumerate_in(q, db, ExecCtx::new(&b, &t))
        .map_err(fail)?;
    prop_assert!(!truncated, "a roomy quota truncated {}", q);
    let (b, t) = (budget(), tracer());
    let count = plan.count_in(q, db, ExecCtx::new(&b, &t)).map_err(fail)?;
    prop_assert_eq!(
        t.finish(obs::TraceOutcome::default()).is_some(),
        traced,
        "trace produced iff traced"
    );
    let rows = rows.rows().map(<[Value]>::to_vec).collect();
    Ok((boolean, rows, count))
}

/// Sorted rows, for comparing against naive's (differently ordered)
/// output.
fn sorted(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut rows = rows.to_vec();
    rows.sort();
    rows
}

fn check_contexts(q: &ConjunctiveQuery, db: &Database) -> Result<(), TestCaseError> {
    let h = q.hypergraph();
    let plans = [
        Strategy::plan(q),
        Strategy::from_decomposition(heuristics::best_decomposition(&h)),
    ];
    // The naive reference: full joins under a row budget the generators'
    // small databases stay within (a blown budget skips the comparison).
    let order = JoinOrder::GreedySmallest;
    let full = with_head(q, q.num_vars());
    let naive = naive::evaluate(q, db, order, 1 << 16)
        .and_then(|head| Ok((head, naive::evaluate(&full, db, order, 1 << 16)?)));
    for plan in &plans {
        let base = run(plan, q, db, false, false)?;
        for (traced, roomy) in [(false, true), (true, false), (true, true)] {
            let other = run(plan, q, db, traced, roomy)?;
            prop_assert_eq!(
                &other,
                &base,
                "traced={} roomy={} diverged on {} (width-{} plan)",
                traced,
                roomy,
                q,
                plan.width()
            );
        }
        match &naive {
            Ok((head, all)) => {
                prop_assert_eq!(base.0, !all.is_empty(), "boolean vs naive on {}", q);
                prop_assert_eq!(base.2, all.len() as u128, "count vs naive on {}", q);
                let naive_rows: Vec<Vec<Value>> = head.rows().map(<[Value]>::to_vec).collect();
                prop_assert_eq!(
                    sorted(&base.1),
                    sorted(&naive_rows),
                    "rows vs naive on {}",
                    q
                );
            }
            Err(NaiveError::BudgetExceeded { .. }) => {}
            Err(e) => return Err(TestCaseError::Fail(format!("naive: {e} on {q}"))),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random query, random database (possibly with empty relations).
    #[test]
    fn contexts_agree_with_each_other_and_naive(
        seed in 0u64..1 << 48,
        n_vars in 2usize..6,
        m_atoms in 1usize..5,
        head_k in 0usize..4,
        rows in 0usize..24,
    ) {
        let mut rng = random::rng(seed);
        let q = with_head(&random::random_query(&mut rng, n_vars, m_atoms, 3), head_k);
        let db = random::random_database(&mut rng, &q, 4, rows);
        check_contexts(&q, &db)?;
    }

    /// Planted databases guarantee at least one satisfying assignment, so
    /// the non-empty paths (probe hits, join fan-out) are always hit.
    #[test]
    fn contexts_agree_on_planted_instances(seed in 0u64..1 << 48) {
        let mut rng = random::rng(seed);
        let q = with_head(&random::random_query(&mut rng, 5, 4, 3), 2);
        let db = random::planted_database(&mut rng, &q, 4, 12);
        check_contexts(&q, &db)?;
    }
}

/// Arity-0 relations: a nullary atom is a fact-or-not flag, present or
/// absent, under every context.
#[test]
fn nullary_relations_agree_across_contexts() {
    let mut b = ConjunctiveQuery::builder();
    b.atom("flag", vec![]);
    b.atom_vars("e", &["X", "Y"]);
    b.head("q", &["X"]);
    let q = b.build();

    let mut present = Relation::new(0);
    present.push_row(&[]);
    for flag in [present, Relation::new(0)] {
        let mut db = Database::new();
        db.insert("flag", flag);
        db.add_fact("e", &[1, 2]);
        db.add_fact("e", &[3, 4]);
        check_contexts(&q, &db).unwrap();
    }
}
