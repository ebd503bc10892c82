//! Cross-theorem consistency checks connecting the width notions and the
//! equivalent problems — the quantitative glue of Sections 3–6.

use hypertree::core::{opt, querydecomp};
use hypertree::eval::{containment, evaluate_boolean};
use hypertree::hypergraph::{graph, treewidth, Hypergraph};
use hypertree::workloads::{families, random};
use proptest::prelude::*;

fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (2usize..=6, 1usize..=5).prop_flat_map(|(n, m)| {
        proptest::collection::vec(proptest::collection::btree_set(0..n, 1..=n.min(3)), m..=m)
            .prop_map(move |edges| {
                let lists: Vec<Vec<usize>> =
                    edges.into_iter().map(|s| s.into_iter().collect()).collect();
                let slices: Vec<&[usize]> = lists.iter().map(|e| e.as_slice()).collect();
                Hypergraph::from_edge_lists(n, &slices)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Chekuri–Rajaraman (as cited in §6): qw(Q) ≤ tw(VAIG(Q)) + 1,
    /// and with maximum arity a, tw(VAIG)/a ≤ qw.
    #[test]
    fn cr_inequalities(h in arb_hypergraph()) {
        let vaig = graph::incidence_graph(&h);
        prop_assume!(vaig.len() <= treewidth::EXACT_LIMIT);
        let tw = treewidth::treewidth_exact(&vaig).unwrap();
        let qw = querydecomp::query_width(&h, 5_000_000);
        prop_assume!(qw.is_ok());
        let qw = qw.unwrap();
        prop_assume!(qw >= 1); // skip edgeless corner
        prop_assert!(qw <= tw + 1, "qw {qw} > tw {tw} + 1");
        let max_arity = h
            .edges()
            .map(|e| h.edge_vertices(e).len())
            .max()
            .unwrap_or(1)
            .max(1);
        prop_assert!(tw <= qw * max_arity, "tw {tw} > qw {qw} × a {max_arity}");
    }

    /// The width chain: hw ≤ qw always (Theorem 6.1a).
    #[test]
    fn width_chain(h in arb_hypergraph()) {
        let hw = opt::hypertree_width(&h);
        let qw = querydecomp::query_width(&h, 5_000_000);
        prop_assume!(qw.is_ok());
        prop_assert!(hw <= qw.unwrap());
    }
}

/// Containment is reflexive and transitive on a random query pool, and
/// matches a brute-force homomorphism check.
#[test]
fn containment_laws() {
    let mut rng = random::rng(0xC017);
    let pool: Vec<cq::ConjunctiveQuery> = (0..8)
        .map(|_| random::random_query(&mut rng, 4, 3, 2))
        .collect();
    for q in &pool {
        assert_eq!(containment::contained_in(q, q), Ok(true), "reflexivity");
    }
    for a in &pool {
        for b in &pool {
            for c in &pool {
                let ab = containment::contained_in(a, b).unwrap();
                let bc = containment::contained_in(b, c).unwrap();
                if ab && bc {
                    assert_eq!(
                        containment::contained_in(a, c),
                        Ok(true),
                        "transitivity broken"
                    );
                }
            }
        }
    }
}

/// Containment matches a brute-force homomorphism search on tiny queries.
#[test]
fn containment_matches_homomorphism_bruteforce() {
    let mut rng = random::rng(0x40);
    for _ in 0..40 {
        let q1 = random::random_query(&mut rng, 4, 3, 2);
        let q2 = random::random_query(&mut rng, 3, 2, 2);
        let fast = containment::contained_in(&q1, &q2).unwrap();
        let slow = homomorphism_exists(&q2, &q1);
        assert_eq!(fast, slow, "containment vs brute force on {q1} vs {q2}");
    }
}

/// Brute force: does a homomorphism from `from` into `to` exist?
/// (Boolean queries: no head constraint.)
fn homomorphism_exists(from: &cq::ConjunctiveQuery, to: &cq::ConjunctiveQuery) -> bool {
    use hypertree::cq::Term;
    let n = from.num_vars();
    // Targets: the frozen variables of `to`.
    let targets: Vec<usize> = (0..to.num_vars()).collect();
    let mut assignment = vec![0usize; n];
    fn rec(
        i: usize,
        n: usize,
        targets: &[usize],
        assignment: &mut Vec<usize>,
        from: &cq::ConjunctiveQuery,
        to: &cq::ConjunctiveQuery,
    ) -> bool {
        if i == n {
            // Every atom of `from` must map onto an atom of `to`.
            return from.atoms().iter().all(|a| {
                to.atoms().iter().any(|b| {
                    a.predicate == b.predicate
                        && a.terms.len() == b.terms.len()
                        && a.terms.iter().zip(&b.terms).all(|(x, y)| match (x, y) {
                            (Term::Var(v), Term::Var(w)) => {
                                assignment[hypergraph::Ix::index(*v)] == hypergraph::Ix::index(*w)
                            }
                            (Term::Const(c), Term::Const(d)) => c == d,
                            _ => false,
                        })
                })
            });
        }
        for &t in targets {
            assignment[i] = t;
            if rec(i + 1, n, targets, assignment, from, to) {
                return true;
            }
        }
        false
    }
    if n == 0 {
        return rec(0, 0, &targets, &mut assignment, from, to);
    }
    rec(0, n, &targets, &mut assignment, from, to)
}

/// Acyclic queries: Yannakakis full reduction leaves only participating
/// tuples (global semijoin consistency), checked against enumeration.
#[test]
fn full_reduction_consistency() {
    let mut rng = random::rng(0xF011);
    for n in [3usize, 5] {
        let q = families::path(n);
        let db = random::random_database(&mut rng, &q, 6, 25);
        let bound = hypertree::eval::bind_all(&q, &db).unwrap();
        let h = q.hypergraph();
        let jt = hypertree::hypergraph::acyclic::join_tree(&h).unwrap();
        let nodes: Vec<_> = jt
            .tree()
            .nodes()
            .map(|x| bound[hypergraph::Ix::index(jt.edge_at(x))].clone())
            .collect();
        let pipeline = hypertree::eval::Pipeline::from_nodes(jt.tree(), &nodes);
        let mut reduced: Vec<_> = nodes.iter().map(|b| b.rel.clone()).collect();
        pipeline.full_reduce(&mut reduced);
        let mut swept: Vec<_> = nodes.iter().map(|b| b.rel.clone()).collect();
        let boolean = pipeline.boolean(&mut swept);
        // Non-empty reduction at every node ⟺ the query is satisfiable.
        let all_nonempty = reduced.iter().all(|r| !r.is_empty());
        assert_eq!(all_nonempty, boolean);
    }
}

/// The Qn family under evaluation: the reduction keeps the promise that
/// answering stays cheap even as incidence treewidth explodes.
#[test]
fn qn_family_evaluates_fast() {
    for n in [2usize, 4, 8] {
        let q = families::qn(n);
        let mut rng = random::rng(n as u64);
        let db = random::planted_database(&mut rng, &q, 6, 20);
        assert_eq!(evaluate_boolean(&q, &db), Ok(true));
    }
}
