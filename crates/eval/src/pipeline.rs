//! The planned Yannakakis pipeline: one rooted join tree, planned once,
//! run many ways.
//!
//! [`Pipeline`] precomputes everything the semijoin sweeps need — the
//! post-/pre-order schedules and, per join-tree edge, the shared-variable
//! column lists for both directions — and then runs `boolean` /
//! `full_reduce` / `enumerate` / `count` *in place* over a caller-owned
//! `&mut [Relation]`, each under an [`ExecCtx`] (budget + tracer; the
//! plain-signature methods run under [`ExecCtx::unlimited`]):
//!
//! * node relations are never cloned — sweeps filter rows with
//!   [`Relation::retain_semijoin_cols`] instead of materializing new
//!   relations;
//! * every index is obtained through [`Relation::index_on`], which
//!   memoizes per `(relation, columns)` pair, so no index is ever rebuilt
//!   within a run (in-place filtering invalidates a relation's cache only
//!   when rows were actually removed, so e.g. a parent indexed during the
//!   bottom-up sweep serves the top-down sweep for all of its children
//!   with the same connector columns, and unchanged relations keep their
//!   indexes across sweeps).
//!
//! This is Yannakakis' algorithm (§1.1, §2.1 of the paper): a Boolean
//! query is answered by one bottom-up semijoin sweep; the full reducer
//! (bottom-up + top-down) makes every remaining tuple participate in some
//! answer; and non-Boolean answers are assembled bottom-up with
//! projections onto output ∪ connector variables, the output-polynomial
//! bound of Theorem 4.8 / Corollary 5.20. The planner
//! ([`crate::Strategy`]), the Lemma 4.6 reduction and the counting
//! extension all drive it.

use crate::binding::BoundAtom;
use crate::governed::{note_nodes_in, note_nodes_out, trip_to_error, ExecCtx};
use hypergraph::{Ix, NodeId, RootedTree, VertexId};
use hypertree_core::QueryError;
use relation::{ops, Relation};

/// Column pairs between two variable lists (join keys on shared vars).
///
/// Emits *every* `(i, j)` with `left[i] == right[j]`, not just the first
/// occurrence on either side. On duplicate-free lists — what every
/// in-tree constructor produces, see [`Pipeline::new`] — this is the same
/// single pair per shared variable as before; on lists with repeats
/// (possible through the public `Pipeline::new`) the all-pairs form is
/// what actually enforces the variable's equality semantics: pairing only
/// first occurrences would silently leave later columns unconstrained.
fn var_pairs(left: &[VertexId], right: &[VertexId]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (i, v) in left.iter().enumerate() {
        for (j, w) in right.iter().enumerate() {
            if v == w {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// A compiled evaluation plan over a rooted join tree: traversal orders
/// plus per-edge join-column lists, computed once and reused by every run.
#[derive(Clone, Debug)]
pub struct Pipeline {
    tree: RootedTree,
    /// Per node: its variable list (one column per variable).
    vars: Vec<Vec<VertexId>>,
    post: Vec<NodeId>,
    pre: Vec<NodeId>,
    /// Per non-root node: the columns of the *parent* shared with it.
    parent_cols: Vec<Vec<usize>>,
    /// Per non-root node: its own columns shared with the parent (aligned
    /// with `parent_cols`).
    child_cols: Vec<Vec<usize>>,
}

impl Pipeline {
    /// Plan the tree with the given per-node variable lists.
    ///
    /// Each node's variable list must be duplicate-free. The binding layer
    /// guarantees this for every query-derived pipeline: repeated
    /// variables in an atom are canonicalized at bind time
    /// ([`crate::binding::bind_atom`] applies the equality selections and
    /// projects onto first occurrences), and the Lemma 4.6 reduction only
    /// accumulates fresh variables per node. Debug builds assert it;
    /// `enumerate`'s column bookkeeping relies on it.
    pub fn new(tree: &RootedTree, vars: Vec<Vec<VertexId>>) -> Self {
        assert_eq!(tree.len(), vars.len(), "one variable list per node");
        debug_assert!(
            vars.iter()
                .all(|vs| { vs.iter().enumerate().all(|(i, v)| !vs[..i].contains(v)) }),
            "node variable lists must be duplicate-free (bind atoms first)"
        );
        let mut parent_cols = Vec::with_capacity(tree.len());
        let mut child_cols = Vec::with_capacity(tree.len());
        // archlint::allow(budget-polled-loops, reason = "plan construction: one pass over the join tree, bounded by node count, no data touched")
        for n in tree.nodes() {
            match tree.parent(n) {
                Some(p) => {
                    let pairs = var_pairs(&vars[p.index()], &vars[n.index()]);
                    parent_cols.push(pairs.iter().map(|&(i, _)| i).collect());
                    child_cols.push(pairs.iter().map(|&(_, j)| j).collect());
                }
                None => {
                    parent_cols.push(Vec::new());
                    child_cols.push(Vec::new());
                }
            }
        }
        Pipeline {
            tree: tree.clone(),
            post: tree.post_order(),
            pre: tree.pre_order(),
            vars,
            parent_cols,
            child_cols,
        }
    }

    /// Plan from annotated nodes (variable lists are copied; relations are
    /// not touched — pass them to the run methods).
    pub fn from_nodes(tree: &RootedTree, nodes: &[BoundAtom]) -> Self {
        Self::new(tree, nodes.iter().map(|b| b.vars.clone()).collect())
    }

    /// The planned tree.
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// The variable list of node `n`.
    pub fn node_vars(&self, n: NodeId) -> &[VertexId] {
        &self.vars[n.index()]
    }

    /// One bottom-up semijoin sweep, in place; returns `true` iff the
    /// Boolean query holds (the root stays non-empty). Exits early as soon
    /// as any parent empties — it can never recover.
    pub fn boolean(&self, rels: &mut [Relation]) -> bool {
        ExecCtx::never_trips(|ctx| self.boolean_in(rels, ctx))
    }

    /// The full reducer: bottom-up then top-down semijoin sweeps, in
    /// place. Afterwards every remaining tuple of every node participates
    /// in at least one answer.
    pub fn full_reduce(&self, rels: &mut [Relation]) {
        ExecCtx::never_trips(|ctx| self.full_reduce_in(rels, ctx));
    }

    /// Enumerate the answers projected onto `output` (Theorem 4.8 shape):
    /// full-reduce in place, then join bottom-up keeping only output
    /// variables and the variables shared with the yet-unjoined parent.
    ///
    /// Consumes the contents of `rels` (each slot is left empty).
    pub fn enumerate(&self, rels: &mut [Relation], output: &[VertexId]) -> Relation {
        ExecCtx::never_trips(|ctx| self.enumerate_in(rels, output, ctx)).0
    }

    /// Count the satisfying substitutions by the bottom-up product-sum DP
    /// (the counting extension of Yannakakis' algorithm; see
    /// [`crate::counting`]). Read-only: probes the nodes' cached indexes,
    /// clones nothing, and leaves `rels` untouched.
    ///
    /// **Saturating contract:** every accumulation step — the per-group
    /// child sums, the per-tuple factor products, and the final root sum —
    /// saturates at `u128::MAX` instead of panicking (debug) or wrapping
    /// (release). A result of `u128::MAX` therefore means "at least
    /// `u128::MAX`".
    pub fn count(&self, rels: &[Relation]) -> u128 {
        ExecCtx::never_trips(|ctx| self.count_in(rels, ctx))
    }

    /// [`Pipeline::boolean`] under `ctx`: the budget is checked before
    /// every edge and polled inside each semijoin at chunk granularity;
    /// the sweep runs under the tracer's `reduce` span with its row scans
    /// tapped per node.
    pub fn boolean_in(&self, rels: &mut [Relation], ctx: ExecCtx<'_>) -> Result<bool, QueryError> {
        assert_eq!(rels.len(), self.tree.len(), "one relation per node");
        let _span = ctx.tracer.span(obs::Phase::Reduce);
        note_nodes_in(ctx.tracer, rels);
        for &n in &self.post {
            if let Some(p) = self.tree.parent(n) {
                // Bottom-up: the parent is filtered.
                let (parent, child) = pair_mut(rels, p.index(), n.index());
                self.metered_semijoin(
                    parent,
                    p,
                    &self.parent_cols[n.index()],
                    child,
                    &self.child_cols[n.index()],
                    ctx,
                )?;
                if parent.is_empty() {
                    note_nodes_out(ctx.tracer, rels);
                    return Ok(false);
                }
            }
        }
        note_nodes_out(ctx.tracer, rels);
        Ok(!rels[self.tree.root().index()].is_empty())
    }

    /// [`Pipeline::full_reduce`] under `ctx`; same per-edge checking as
    /// [`Pipeline::boolean_in`].
    pub fn full_reduce_in(
        &self,
        rels: &mut [Relation],
        ctx: ExecCtx<'_>,
    ) -> Result<(), QueryError> {
        assert_eq!(rels.len(), self.tree.len(), "one relation per node");
        let _span = ctx.tracer.span(obs::Phase::Reduce);
        note_nodes_in(ctx.tracer, rels);
        for &n in &self.post {
            if let Some(p) = self.tree.parent(n) {
                let (parent, child) = pair_mut(rels, p.index(), n.index());
                self.metered_semijoin(
                    parent,
                    p,
                    &self.parent_cols[n.index()],
                    child,
                    &self.child_cols[n.index()],
                    ctx,
                )?;
            }
        }
        for &n in &self.pre {
            if let Some(p) = self.tree.parent(n) {
                // Top-down: the child is filtered.
                let (parent, child) = pair_mut(rels, p.index(), n.index());
                self.metered_semijoin(
                    child,
                    n,
                    &self.child_cols[n.index()],
                    parent,
                    &self.parent_cols[n.index()],
                    ctx,
                )?;
            }
        }
        note_nodes_out(ctx.tracer, rels);
        Ok(())
    }

    /// One edge of a semijoin sweep under `ctx`: `left` (plan node
    /// `node`) keeps only its rows matching `right`.
    fn metered_semijoin(
        &self,
        left: &mut Relation,
        node: NodeId,
        left_cols: &[usize],
        right: &Relation,
        right_cols: &[usize],
        ctx: ExecCtx<'_>,
    ) -> Result<(), QueryError> {
        const PHASE: &str = "semijoin";
        ctx.budget.check(PHASE)?;
        let meter = ctx
            .meter(PHASE)
            .with_node_tap(ctx.tracer.node_tap(node.index()));
        left.retain_semijoin_cols_metered(left_cols, right, right_cols, &meter)
            .map_err(|t| trip_to_error(t, PHASE))
    }

    /// [`Pipeline::enumerate`] under `ctx`. Returns `(answers,
    /// truncated)`: `truncated == true` means the byte quota tripped
    /// during the join phase and the rows are a sound subset of the full
    /// answer (see [`crate::governed`] for the degradation ladder).
    /// Deadline and cancellation trips error.
    pub fn enumerate_in(
        &self,
        rels: &mut [Relation],
        output: &[VertexId],
        ctx: ExecCtx<'_>,
    ) -> Result<(Relation, bool), QueryError> {
        self.full_reduce_in(rels, ctx)?;
        self.join_phase(rels, output, ctx)
    }

    /// The bottom-up join/projection phase of `enumerate`, over already
    /// fully reduced relations, under the tracer's `join` span. Without
    /// a byte quota the joins size their output exactly up front; with
    /// one they build in metered instalments and truncate to a clean
    /// prefix when the quota trips.
    fn join_phase(
        &self,
        rels: &mut [Relation],
        output: &[VertexId],
        ctx: ExecCtx<'_>,
    ) -> Result<(Relation, bool), QueryError> {
        const PHASE: &str = "join";
        let _span = ctx.tracer.span(obs::Phase::Join);
        let truncate_on_memory = ctx.budget.has_byte_quota();
        let mut truncated = false;
        // Projections only shrink; memory charges are advisory once
        // truncation has started, and always accounted.
        let meter = |node: NodeId, truncated: bool| {
            let m = ctx
                .meter(PHASE)
                .with_node_tap(ctx.tracer.node_tap(node.index()));
            if truncated {
                m.unenforced()
            } else {
                m
            }
        };
        let trip = |t| trip_to_error(t, PHASE);
        // Working annotations: (vars, relation) per node, consumed
        // bottom-up; the reduced relations are moved in, not cloned.
        let mut work: Vec<(Vec<VertexId>, Relation)> = self
            .vars
            .iter()
            .cloned()
            .zip(rels.iter_mut().map(std::mem::take))
            .collect();

        for &n in &self.post {
            ctx.budget.check(PHASE)?;
            let (mut vars, mut rel) = std::mem::take(&mut work[n.index()]);
            for &c in self.tree.children(n) {
                let (cvars, crel) = std::mem::take(&mut work[c.index()]);
                let pairs = var_pairs(&vars, &cvars);
                let keep: Vec<usize> = (0..cvars.len())
                    .filter(|&j| !vars.contains(&cvars[j]))
                    .collect();
                let (joined, t) = ops::join_metered(
                    &rel,
                    &crel,
                    &pairs,
                    &keep,
                    &meter(n, truncated),
                    truncate_on_memory,
                )
                .map_err(trip)?;
                truncated |= t;
                rel = joined;
                for j in keep {
                    vars.push(cvars[j]);
                }
            }
            // Project onto output vars plus connector vars with the parent.
            let parent_vars: &[VertexId] = match self.tree.parent(n) {
                Some(p) => &self.vars[p.index()],
                None => &[],
            };
            let keep_cols: Vec<usize> = (0..vars.len())
                .filter(|&i| output.contains(&vars[i]) || parent_vars.contains(&vars[i]))
                .collect();
            let projected_vars: Vec<VertexId> = keep_cols.iter().map(|&i| vars[i]).collect();
            let projected =
                ops::project_metered(&rel, &keep_cols, &meter(n, truncated)).map_err(trip)?;
            work[n.index()] = (projected_vars, projected);
        }

        // Root now holds the answers over (a permutation of) the output
        // vars; order the columns as requested, duplicating columns for
        // repeated output variables.
        let root = self.tree.root();
        let (vars, rel) = &work[root.index()];
        if output.iter().any(|v| !vars.contains(v)) {
            // Some output variable vanished: only possible when the result
            // is empty (full reduction would otherwise have kept it via an
            // atom).
            debug_assert!(rel.is_empty());
            return Ok((Relation::new(output.len()), truncated));
        }
        let cols: Vec<usize> = output
            .iter()
            // archlint::allow(panic-free-request-path, reason = "guarded by the contains() early-return above")
            .map(|v| vars.iter().position(|w| w == v).expect("checked above"))
            .collect();
        let out = ops::project_metered(rel, &cols, &meter(root, truncated)).map_err(trip)?;
        Ok((out, truncated))
    }

    /// [`Pipeline::count`] under `ctx`: checked before every DP edge,
    /// with the tuple counts and per-edge group sums charged against the
    /// byte quota, under the tracer's `count` span. A memory trip is a
    /// hard error — a truncated count would be silently wrong, unlike a
    /// truncated enumeration.
    pub fn count_in(&self, rels: &[Relation], ctx: ExecCtx<'_>) -> Result<u128, QueryError> {
        const PHASE: &str = "count";
        assert_eq!(rels.len(), self.tree.len(), "one relation per node");
        let _span = ctx.tracer.span(obs::Phase::Count);
        let (budget, tracer) = (ctx.budget, ctx.tracer);
        // The DP never filters: rows in == rows out at every node.
        note_nodes_in(tracer, rels);
        note_nodes_out(tracer, rels);
        budget.check(PHASE)?;
        let cell = std::mem::size_of::<u128>() as u64;
        budget.charge_bytes(rels.iter().map(|r| r.len() as u64 * cell).sum())?;
        let mut counts: Vec<Vec<u128>> = rels.iter().map(|r| vec![1u128; r.len()]).collect();
        for &n in &self.post {
            let Some(p) = self.tree.parent(n) else {
                continue;
            };
            budget.check(PHASE)?;
            let child = &rels[n.index()];
            let parent = &rels[p.index()];
            // One sum per child group (at most one per child row).
            budget.charge_bytes(child.len() as u64 * cell)?;
            // Each edge scans its child and parent relations once.
            tracer
                .io()
                .add_rows(child.len() as u64 + parent.len() as u64);
            tracer.node_tap(n.index()).add_rows(child.len() as u64);
            tracer.node_tap(p.index()).add_rows(parent.len() as u64);
            // Per-group sums of the child's tuple counts, laid out by the
            // cached index's group ids.
            let index = child.index_on(&self.child_cols[n.index()]);
            let child_counts = &counts[n.index()];
            let sums: Vec<u128> = index
                .groups()
                .map(|g| saturating_sum(g.iter().map(|&i| child_counts[i as usize])))
                .collect();
            let parent_cols = &self.parent_cols[n.index()];
            let parent_counts = &mut counts[p.index()];
            for (i, row) in parent.rows().enumerate() {
                let factor = index.probe_gid(row, parent_cols).map_or(0, |g| sums[g]);
                parent_counts[i] = parent_counts[i].saturating_mul(factor);
            }
        }
        Ok(saturating_sum(
            counts[self.tree.root().index()].iter().copied(),
        ))
    }
}

/// Saturating fold of tuple counts: the additive half of the counting
/// DP's overflow contract (see [`Pipeline::count`]). Once any partial sum
/// reaches `u128::MAX` it stays there — the old unchecked `Sum` panicked
/// in debug builds and wrapped (returning garbage counts) in release.
#[inline]
fn saturating_sum(counts: impl Iterator<Item = u128>) -> u128 {
    counts.fold(0u128, |acc, c| acc.saturating_add(c))
}

/// Split mutable access to a (parent, child) pair of node relations.
fn pair_mut(rels: &mut [Relation], a: usize, b: usize) -> (&mut Relation, &mut Relation) {
    assert_ne!(a, b, "tree edges never self-loop");
    if a < b {
        let (left, right) = rels.split_at_mut(b);
        (&mut left[a], &mut right[0])
    } else {
        let (left, right) = rels.split_at_mut(a);
        (&mut right[0], &mut left[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::bind_all;
    use cq::parse_query;
    use hypergraph::acyclic;
    use relation::{Database, Value};

    fn pipeline_and_rels(q: &cq::ConjunctiveQuery, db: &Database) -> (Pipeline, Vec<Relation>) {
        let h = q.hypergraph();
        let jt = acyclic::join_tree(&h).expect("query must be acyclic");
        let bound = bind_all(q, db).unwrap();
        let mut slots: Vec<Option<BoundAtom>> = bound.into_iter().map(Some).collect();
        let mut vars = Vec::new();
        let mut rels = Vec::new();
        for n in jt.tree().nodes() {
            let b = slots[jt.edge_at(n).index()]
                .take()
                .expect("join trees visit each edge once");
            vars.push(b.vars);
            rels.push(b.rel);
        }
        (Pipeline::new(jt.tree(), vars), rels)
    }

    #[test]
    fn boolean_sweep_in_place() {
        let q = parse_query("ans :- r(X,Y), s(Y,Z).").unwrap();
        let mut db = Database::new();
        db.add_fact("r", &[1, 10]);
        db.add_fact("s", &[10, 100]);
        let (pl, mut rels) = pipeline_and_rels(&q, &db);
        assert!(pl.boolean(&mut rels));
        let mut db2 = Database::new();
        db2.add_fact("r", &[1, 10]);
        db2.add_fact("s", &[11, 100]);
        let (pl2, mut rels2) = pipeline_and_rels(&q, &db2);
        assert!(!pl2.boolean(&mut rels2));
    }

    #[test]
    fn no_index_is_built_twice_for_the_same_pair() {
        // A star query: the hub is semijoined by three children bottom-up
        // and indexed once for all three probes of the top-down sweep.
        let q = parse_query("ans :- hub(A,B,C), p(A), p2(B), p3(C).").unwrap();
        let mut db = Database::new();
        for i in 0..50u64 {
            db.add_fact("hub", &[i, i % 7, i % 5]);
            db.add_fact("p", &[i % 9]);
            db.add_fact("p2", &[i % 7]);
            db.add_fact("p3", &[i % 4]);
        }
        let (pl, mut rels) = pipeline_and_rels(&q, &db);
        let before = relation::stats::index_builds();
        pl.full_reduce(&mut rels);
        let built = relation::stats::index_builds() - before;
        // Bottom-up: one index per child (3). Top-down: one per distinct
        // (parent, connector-columns) pair, built at most once each (3
        // single-column lists on the hub) — and none of the 6 pairs twice.
        assert!(built <= 6, "expected ≤ 6 index builds, saw {built}");
        // A second run may rebuild indexes of relations the first run's
        // top-down sweep filtered, but it filters nothing itself (the
        // instance is fixpointed) — so a third run finds every cache warm
        // and builds nothing at all.
        pl.full_reduce(&mut rels);
        let before = relation::stats::index_builds();
        pl.full_reduce(&mut rels);
        assert_eq!(relation::stats::index_builds() - before, 0);
    }

    #[test]
    fn count_matches_enumerate_cardinality_on_distinct_vars() {
        let q = parse_query("ans(H,X,Y) :- r(H,X), s(H,Y).").unwrap();
        let mut db = Database::new();
        for x in 0..3 {
            db.add_fact("r", &[1, x]);
        }
        for y in 0..5 {
            db.add_fact("s", &[1, y]);
        }
        let (pl, rels) = pipeline_and_rels(&q, &db);
        assert_eq!(pl.count(&rels), 15);
        let mut rels2 = rels.clone();
        let out = pl.enumerate(&mut rels2, &q.head_vars());
        assert_eq!(out.len(), 15);
        assert!(out.contains_row(&[Value(1), Value(2), Value(4)]));
    }

    // Example-driven tests of the three sweeps, run over the bound atoms
    // of a query's join tree (copied, so each test sees fresh relations).

    fn boolean(tree: &RootedTree, nodes: &[BoundAtom]) -> bool {
        let mut rels: Vec<Relation> = nodes.iter().map(|b| b.rel.clone()).collect();
        Pipeline::from_nodes(tree, nodes).boolean(&mut rels)
    }

    fn full_reduce(tree: &RootedTree, nodes: &[BoundAtom]) -> Vec<Relation> {
        let mut rels: Vec<Relation> = nodes.iter().map(|b| b.rel.clone()).collect();
        Pipeline::from_nodes(tree, nodes).full_reduce(&mut rels);
        rels
    }

    fn enumerate(tree: &RootedTree, nodes: &[BoundAtom], output: &[VertexId]) -> Relation {
        let mut rels: Vec<Relation> = nodes.iter().map(|b| b.rel.clone()).collect();
        Pipeline::from_nodes(tree, nodes).enumerate(&mut rels, output)
    }

    /// Build the join-tree order of bound atoms for an acyclic query.
    fn tree_and_nodes(q: &cq::ConjunctiveQuery, db: &Database) -> (RootedTree, Vec<BoundAtom>) {
        let h = q.hypergraph();
        let jt = acyclic::join_tree(&h).expect("query must be acyclic");
        let bound = bind_all(q, db).unwrap();
        // Node n of the join tree carries edge e = atom index.
        let nodes: Vec<BoundAtom> = jt
            .tree()
            .nodes()
            .map(|n| bound[jt.edge_at(n).index()].clone())
            .collect();
        (jt.tree().clone(), nodes)
    }

    /// Example 1.1's Q2 over a database where it holds.
    #[test]
    fn q2_true_instance() {
        let q = parse_query("ans :- teaches(P,C,A), enrolled(S,C2,R), parent(P,S).").unwrap();
        let mut db = Database::new();
        db.add_fact("teaches", &[1, 7, 100]);
        db.add_fact("enrolled", &[2, 8, 200]);
        db.add_fact("parent", &[1, 2]);
        let (tree, nodes) = tree_and_nodes(&q, &db);
        assert!(boolean(&tree, &nodes));
    }

    #[test]
    fn q2_false_instance() {
        let q = parse_query("ans :- teaches(P,C,A), enrolled(S,C2,R), parent(P,S).").unwrap();
        let mut db = Database::new();
        db.add_fact("teaches", &[1, 7, 100]);
        db.add_fact("enrolled", &[2, 8, 200]);
        db.add_fact("parent", &[3, 2]); // person 3 teaches nothing
        let (tree, nodes) = tree_and_nodes(&q, &db);
        assert!(!boolean(&tree, &nodes));
    }

    #[test]
    fn full_reducer_keeps_only_participating_tuples() {
        let q = parse_query("ans :- r(X,Y), s(Y,Z).").unwrap();
        let mut db = Database::new();
        db.add_fact("r", &[1, 10]);
        db.add_fact("r", &[2, 20]); // 20 has no s-partner
        db.add_fact("s", &[10, 100]);
        db.add_fact("s", &[30, 300]); // 30 has no r-partner
        let (tree, nodes) = tree_and_nodes(&q, &db);
        let reduced = full_reduce(&tree, &nodes);
        for r in &reduced {
            assert_eq!(r.len(), 1, "exactly the participating tuple remains");
        }
    }

    #[test]
    fn enumeration_projects_answers() {
        let q = parse_query("ans(X, Z) :- r(X,Y), s(Y,Z).").unwrap();
        let mut db = Database::new();
        db.add_fact("r", &[1, 10]);
        db.add_fact("r", &[2, 10]);
        db.add_fact("s", &[10, 100]);
        db.add_fact("s", &[10, 200]);
        let (tree, nodes) = tree_and_nodes(&q, &db);
        let out = enumerate(&tree, &nodes, &q.head_vars());
        assert_eq!(out.len(), 4);
        assert!(out.contains_row(&[Value(2), Value(200)]));
    }

    #[test]
    fn enumeration_of_empty_result() {
        let q = parse_query("ans(X) :- r(X,Y), s(Y,Z).").unwrap();
        let mut db = Database::new();
        db.add_fact("r", &[1, 10]);
        db.add_fact("s", &[99, 100]);
        let (tree, nodes) = tree_and_nodes(&q, &db);
        let out = enumerate(&tree, &nodes, &q.head_vars());
        assert!(out.is_empty());
        assert_eq!(out.arity(), 1);
    }

    #[test]
    fn path_query_longer_chain() {
        let q = parse_query("ans(A,D) :- r(A,B), r(B,C), r(C,D).").unwrap();
        let mut db = Database::new();
        for i in 0..10u64 {
            db.add_fact("r", &[i, i + 1]);
        }
        let (tree, nodes) = tree_and_nodes(&q, &db);
        let out = enumerate(&tree, &nodes, &q.head_vars());
        assert_eq!(out.len(), 8); // paths 0→3 .. 7→10
        assert!(out.contains_row(&[Value(0), Value(3)]));
        assert!(boolean(&tree, &nodes));
    }

    #[test]
    fn disconnected_query_via_stitched_tree() {
        // Two independent components: Boolean semantics must AND them.
        let q = parse_query("ans :- r(X,Y), s(Z,W).").unwrap();
        let mut db = Database::new();
        db.add_fact("r", &[1, 2]);
        let (tree, nodes) = tree_and_nodes(&q, &db);
        assert!(!boolean(&tree, &nodes), "s is empty");
        let mut db2 = Database::new();
        db2.add_fact("r", &[1, 2]);
        db2.add_fact("s", &[3, 4]);
        let (tree2, nodes2) = tree_and_nodes(&q, &db2);
        assert!(boolean(&tree2, &nodes2));
    }
}
