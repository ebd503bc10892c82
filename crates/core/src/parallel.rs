//! A parallel `k-decomp` — the executable stand-in for the paper's
//! parallelizability results (Theorem 5.16: recognising `hw ≤ k` is in
//! LOGCFL ⊆ AC¹, i.e. highly parallelizable).
//!
//! We obviously do not run an alternating Turing machine; instead we
//! exploit the same structural fact the ATM does: once a λ-label `S` is
//! fixed, the `[var(S)]`-components inside the current component are
//! *independent* subproblems (the universal branching of Step 4). The
//! per-subproblem search — candidate pool, subset enumeration, checks
//! 2a/2b, scoped child computation — is the shared
//! `crate::engine::SolverCore`, the same code the sequential solver
//! runs; this module only decides *where* the child subproblems execute:
//! big components on scoped worker threads (while the recursion is
//! shallow), small ones inline.
//!
//! The memo table lives behind a `parking_lot::RwLock` and stores, per
//! `(component, Conn)` key, either the finished verdict with its λ-label
//! (so [`decompose_parallel`] can extract a witness, exactly like the
//! sequential solver) or an *in-progress* marker tagged with the working
//! thread:
//!
//! * another thread finding the marker simply recomputes — both arrive at
//!   the same deterministic answer, one insert wins, and only a little
//!   work is duplicated (the standard lock-light memoisation trade);
//! * the *same* thread finding its own marker would mean a memo cycle.
//!   Components strictly shrink along the recursion (asserted in the
//!   shared core), so this cannot happen; like the sequential solver's
//!   pending-entry guard it is belt and braces, here made thread-correct
//!   by the tag — a plain "pending = failure" entry (as this module used
//!   before it shared the core) would be read by *other* threads as a
//!   cached negative and silently corrupt the memo.
//!
//! Spawning is throttled by `depth < PARALLEL_DEPTH` and a minimum
//! component size so that small instances do not drown in thread overhead;
//! the ablation experiment E11 measures the crossover.

use crate::engine::{extract_witness, SolverCore};
use crate::hypertree::HypertreeDecomposition;
use crate::kdecomp::CandidateMode;
use hypergraph::{Component, EdgeSet, Hypergraph, VertexSet};
use parking_lot::RwLock;
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ThreadId;

/// Run `f` over every item on `workers` scoped threads (inline when
/// `workers <= 1`), preserving item order in the results. Work items are
/// handed out by a shared atomic cursor so a slow item never strands the
/// rest of a worker's share — the same idiom as the component-level
/// spawning below, applied to a flat work list. Each worker accumulates
/// `(index, result)` pairs privately and the lists are merged after the
/// scope joins, so result delivery needs no shared lock.
///
/// This is the workspace's one generic fork/join helper: the serving
/// layer spreads batch requests over it.
pub fn run_parallel<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for part in parts {
        for (i, r) in part {
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect()
}

/// Spawn threads only this deep in the recursion.
const PARALLEL_DEPTH: usize = 3;
/// Components smaller than this are solved inline.
const MIN_PARALLEL_COMPONENT: usize = 4;

/// One memo slot: either a finished subproblem (with its λ-label, `None` =
/// undecomposable) or a cycle marker for the tagged thread.
enum Slot {
    InProgress(ThreadId),
    Done(Option<EdgeSet>),
}

type Memo = RwLock<FxHashMap<VertexSet, FxHashMap<VertexSet, Slot>>>;

struct Ctx<'h> {
    core: SolverCore<'h>,
    memo: Memo,
}

/// Decide `hw(H) ≤ k` using scoped worker threads over independent
/// components. Produces the same answer as [`crate::kdecomp::decide`].
pub fn decide_parallel(h: &Hypergraph, k: usize, mode: CandidateMode) -> bool {
    match setup(h, k, mode) {
        None => true,
        Some((root, ctx)) => decomposable_at(&ctx, &root, &h.empty_vertex_set(), 0),
    }
}

/// Compute a width-`≤ k` hypertree decomposition in normal form using the
/// parallel solver, if one exists. The witness is extracted from the
/// memoised λ-labels, exactly as [`crate::kdecomp::decompose`] does.
pub fn decompose_parallel(
    h: &Hypergraph,
    k: usize,
    mode: CandidateMode,
) -> Option<HypertreeDecomposition> {
    let Some((root, ctx)) = setup(h, k, mode) else {
        // No edges: the trivial decomposition.
        return Some(extract_witness(h, None, |_, _| h.empty_edge_set()));
    };
    if !decomposable_at(&ctx, &root, &h.empty_vertex_set(), 0) {
        return None;
    }
    // All worker threads have joined (scoped), so every touched key holds a
    // Done slot; the walk below only visits subproblems that succeeded.
    let memo = ctx.memo.into_inner();
    let hd = extract_witness(h, Some(root), |comp, child_conn| {
        match memo.get(&comp.vertices).and_then(|m| m.get(child_conn)) {
            Some(Slot::Done(Some(label))) => label.clone(),
            _ => unreachable!("every reachable subproblem was solved"),
        }
    });
    debug_assert_eq!(hd.validate(h), Ok(()), "witness tree must validate");
    debug_assert!(hd.width() <= k.max(1));
    Some(hd)
}

/// Shared setup: `None` when the hypergraph has no covering work at all.
fn setup(h: &Hypergraph, k: usize, mode: CandidateMode) -> Option<(Component, Ctx<'_>)> {
    let core = SolverCore::new(h, k, mode);
    let root = core.root_component()?;
    let ctx = Ctx {
        core,
        memo: RwLock::new(FxHashMap::default()),
    };
    Some((root, ctx))
}

fn decomposable_at(ctx: &Ctx<'_>, comp: &Component, conn: &VertexSet, depth: usize) -> bool {
    let me = std::thread::current().id();
    // Fast path: once the memo warms up most calls are Done hits, served
    // under the shared read lock so workers do not serialize.
    if let Some(Slot::Done(label)) = ctx
        .memo
        .read()
        .get(&comp.vertices)
        .and_then(|m| m.get(conn))
    {
        return label.is_some();
    }
    {
        // Re-check under the write lock before planting the marker: a
        // racing thread may have finished (or started) in between.
        let mut memo = ctx.memo.write();
        match memo.get(&comp.vertices).and_then(|m| m.get(conn)) {
            Some(Slot::Done(label)) => return label.is_some(),
            // Our own marker would be a memo cycle (impossible: components
            // strictly shrink) — belt and braces, mirroring kdecomp.
            Some(Slot::InProgress(t)) if *t == me => return false,
            // Another thread is on it: recompute rather than wait.
            _ => {
                memo.entry(comp.vertices.clone())
                    .or_default()
                    .insert(conn.clone(), Slot::InProgress(me));
            }
        }
    }

    let chosen = ctx.core.search_label(comp, conn, |children| {
        // Small components inline; big ones on scoped threads when shallow.
        let (big, small): (Vec<_>, Vec<_>) = children
            .iter()
            .partition(|(c, _)| c.vertices.len() >= MIN_PARALLEL_COMPONENT);
        for (child, child_conn) in &small {
            if !decomposable_at(ctx, child, child_conn, depth + 1) {
                return false;
            }
        }
        if depth < PARALLEL_DEPTH && big.len() > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = big
                    .iter()
                    .map(|(child, child_conn)| {
                        scope.spawn(move || decomposable_at(ctx, child, child_conn, depth + 1))
                    })
                    .collect();
                handles
                    .into_iter()
                    .all(|j| j.join().expect("worker panicked"))
            })
        } else {
            big.iter()
                .all(|(child, child_conn)| decomposable_at(ctx, child, child_conn, depth + 1))
        }
    });

    let ok = chosen.is_some();
    ctx.memo
        .write()
        .entry(comp.vertices.clone())
        .or_default()
        .insert(conn.clone(), Slot::Done(chosen));
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdecomp::{decide, decompose};

    fn cycle(n: usize) -> Hypergraph {
        let edges: Vec<Vec<usize>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
        let slices: Vec<&[usize]> = edges.iter().map(|e| e.as_slice()).collect();
        Hypergraph::from_edge_lists(n, &slices)
    }

    #[test]
    fn agrees_with_sequential_on_cycles() {
        for n in [3, 6, 10] {
            let h = cycle(n);
            for k in 1..=2 {
                assert_eq!(
                    decide_parallel(&h, k, CandidateMode::Pruned),
                    decide(&h, k, CandidateMode::Pruned),
                    "cycle {n}, k {k}"
                );
            }
        }
    }

    #[test]
    fn agrees_on_branching_instances() {
        // A star of triangles: many independent components after fixing
        // the hub — exactly the shape that exercises parallel branches.
        let mut edges: Vec<Vec<usize>> = Vec::new();
        let mut v = 1;
        for _ in 0..4 {
            edges.push(vec![0, v]);
            edges.push(vec![v, v + 1]);
            edges.push(vec![v + 1, v + 2]);
            edges.push(vec![v + 2, v]);
            v += 3;
        }
        let slices: Vec<&[usize]> = edges.iter().map(|e| e.as_slice()).collect();
        let h = Hypergraph::from_edge_lists(v, &slices);
        for k in 1..=3 {
            assert_eq!(
                decide_parallel(&h, k, CandidateMode::Pruned),
                decide(&h, k, CandidateMode::Pruned),
                "k {k}"
            );
        }
    }

    #[test]
    fn parallel_witnesses_validate() {
        let shapes: Vec<Hypergraph> = vec![
            cycle(6),
            cycle(10),
            Hypergraph::from_edge_lists(4, &[&[0, 1], &[1, 2], &[2, 3]]),
            Hypergraph::from_edge_lists(3, &[&[0, 1], &[1, 2], &[0, 2]]),
        ];
        for h in &shapes {
            for k in 1..=2 {
                for mode in [CandidateMode::Full, CandidateMode::Pruned] {
                    let par = decompose_parallel(h, k, mode);
                    let seq = decompose(h, k, mode);
                    assert_eq!(par.is_some(), seq.is_some(), "{h:?} k={k}");
                    if let Some(hd) = par {
                        assert_eq!(hd.validate(h), Ok(()));
                        assert!(hd.width() <= k.max(1));
                    }
                }
            }
        }
    }

    #[test]
    fn trivial_inputs() {
        let empty = Hypergraph::from_edge_lists(0, &[]);
        assert!(decide_parallel(&empty, 1, CandidateMode::Pruned));
        let hd = decompose_parallel(&empty, 1, CandidateMode::Pruned).unwrap();
        assert_eq!(hd.width(), 0);
        assert_eq!(hd.validate(&empty), Ok(()));
        let single = Hypergraph::from_edge_lists(2, &[&[0, 1]]);
        assert!(decide_parallel(&single, 1, CandidateMode::Full));
        let hd = decompose_parallel(&single, 1, CandidateMode::Full).unwrap();
        assert_eq!(hd.validate(&single), Ok(()));
        assert_eq!(hd.width(), 1);
    }
}
