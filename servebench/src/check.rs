//! Reference answers and answer checks.
//!
//! At set-up every base query gets a reference answer per op and pool
//! database through the uncached `eval` path
//! (`Strategy::plan_heuristic` + `counting::count_with`), cross-checked
//! against `eval::naive` where its intermediate results stay small, and
//! against two identities: Boolean ⇔ count > 0, and planted ⇒ true.
//! Served answers are then compared as [`Answer`] fingerprints.

use crate::gen::{op_index, Inputs, Shape};
use eval::naive::{self, JoinOrder, NaiveError};
use eval::Strategy;
use relation::{Database, Relation};
use service::{Outcome, Response};

/// Row budget of a naive cross-check; beyond it the check is skipped.
const NAIVE_ROW_BUDGET: usize = 5_000;

/// An answer, with enumerated rows reduced to an order-independent
/// fingerprint (plans of different shapes emit rows in different orders).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// A Boolean answer.
    Bool(bool),
    /// A count.
    Count(u128),
    /// Row count and order-independent row hash.
    Rows(usize, u64),
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The fingerprint of a set of rows.
pub fn rows(rel: &Relation) -> Answer {
    let hash = rel.rows().fold(0u64, |acc, row| {
        let h = row.iter().fold(0x51_7CC1_B727_220A, |h, v| mix(h ^ v.0));
        acc.wrapping_add(h)
    });
    Answer::Rows(rel.len(), hash)
}

/// The answer a response carries, or why it carries none.
pub fn of_response(resp: &Response) -> Result<Answer, String> {
    match resp {
        Ok(Outcome::Boolean(b)) => Ok(Answer::Bool(*b)),
        Ok(Outcome::Count(c)) => Ok(Answer::Count(*c)),
        Ok(Outcome::Rows(r)) => Ok(rows(r)),
        Ok(Outcome::Partial(_)) => Err("partial answer".to_string()),
        Err(e) => Err(e.to_string()),
    }
}

/// Reference answers: `answers[db][base][op_index]`.
pub struct References {
    answers: Vec<Vec<[Answer; 3]>>,
    /// Naive cross-checks run (the rest exceeded the row budget).
    pub naive_checked: usize,
    /// Naive cross-checks skipped for the row budget.
    pub naive_skipped: usize,
}

impl References {
    /// The expected answer for text `text` with op slot `op` on pool
    /// database `db`.
    pub fn expect(&self, inputs: &Inputs, db: usize, text: usize, op: usize) -> Answer {
        self.answers[db][inputs.base_of[text]][op]
    }
}

fn parse(shape: &Shape) -> cq::ConjunctiveQuery {
    let text = shape.render("ans", "X");
    cq::parse_query(&text).unwrap_or_else(|e| panic!("generated text must parse: {e}"))
}

/// Compute and cross-check every reference answer. An `Err` names the
/// first disagreement.
pub fn references(inputs: &Inputs) -> Result<References, String> {
    let mut out = References {
        answers: Vec::new(),
        naive_checked: 0,
        naive_skipped: 0,
    };
    for (d, db) in inputs.dbs.iter().enumerate() {
        let mut per_db = Vec::with_capacity(inputs.bases.len());
        for (b, base) in inputs.bases.iter().enumerate() {
            let q = parse(&base.shape);
            let plan = Strategy::plan_heuristic(&q);
            let err = |e: eval::EvalError| format!("reference for base {b} on db {d}: {e}");
            let boolean = plan.boolean(&q, db).map_err(err)?;
            let count = eval::counting::count_with(&plan, &q, db).map_err(err)?;
            let enumerated = plan.enumerate(&q, db).map_err(err)?;
            let mut answer = [Answer::Bool(false); 3];
            answer[op_index(service::Op::Boolean)] = Answer::Bool(boolean);
            answer[op_index(service::Op::Count)] = Answer::Count(count);
            answer[op_index(service::Op::Enumerate)] = rows(&enumerated);
            let fail = |what: &str| Err(format!("base {b} on db {d}: {what}"));
            if boolean != (count > 0) {
                return fail("boolean disagrees with count > 0");
            }
            if boolean == enumerated.is_empty() {
                return fail("boolean disagrees with the enumerated rows");
            }
            if base.planted && !boolean {
                return fail("planted query answered false");
            }
            match naive_answers(&base.shape, &q, db) {
                Ok(naive) if naive != answer => {
                    return fail(&format!("naive {naive:?} vs planned {answer:?}"))
                }
                Ok(_) => out.naive_checked += 1,
                Err(NaiveError::BudgetExceeded { .. }) => out.naive_skipped += 1,
                Err(e) => return fail(&format!("naive: {e}")),
            }
            per_db.push(answer);
        }
        out.answers.push(per_db);
    }
    Ok(out)
}

/// The three answers by naive full joins (count: the full-head query's
/// row count).
fn naive_answers(
    shape: &Shape,
    q: &cq::ConjunctiveQuery,
    db: &Database,
) -> Result<[Answer; 3], NaiveError> {
    let order = JoinOrder::GreedySmallest;
    let full = parse(&shape.full_head());
    let all = naive::evaluate(&full, db, order, NAIVE_ROW_BUDGET)?;
    let head = naive::evaluate(q, db, order, NAIVE_ROW_BUDGET)?;
    let mut answer = [Answer::Bool(false); 3];
    answer[op_index(service::Op::Boolean)] = Answer::Bool(!all.is_empty());
    answer[op_index(service::Op::Count)] = Answer::Count(all.len() as u128);
    answer[op_index(service::Op::Enumerate)] = rows(&head);
    Ok(answer)
}
