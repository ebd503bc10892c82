//! The traced run: the seeded request sequence replayed layer by layer
//! through each layer's public functions, with a span around every call.
//!
//! The chain per request mirrors what `Service::execute` runs on its
//! default (ungoverned, untraced) path:
//!
//! `cq::parse_query` → `service::plan_key` → `PlanCache::get` → on a miss
//! `PreparedQuery::prepare_parsed_with_key` → `ConjunctiveQuery::hypergraph`
//! → `HypertreeDecomposition::complete` → `eval::bind_all` →
//! `reduction::reduce` → `ReducedInstance::into_pipeline` →
//! `Pipeline::{boolean, enumerate, count}`.
//!
//! Where a public function calls another layer internally, the replay
//! times that inner call separately, on the same inputs, and subtracts it
//! from the outer span's self time. Such spans are marked `detached`: their
//! parent is the span they are subtracted from, though they ran beside it:
//!
//! * `reduce` runs `hypergraph()`, `complete()` and `bind_all()` first,
//!   so `eval.reduce` self time is node build alone;
//! * `prepare_parsed_with_key` runs `acyclic::join_tree` and, on a
//!   decomposition-cache miss, `heuristics::decompose_auto`;
//! * `Pipeline::enumerate` runs `full_reduce` first (timed on a copy of
//!   the node relations), so `eval.enumerate` self time is the join phase.
//!
//! The replay keeps its own `PlanCache` and `DecompCache` at the service's
//! default capacities and warms them the way set-up warms the service,
//! so it takes the same cache path per request.

use crate::check::{self, Answer, References};
use crate::drive::{self, Limit, Measured, Prepared, Swapper};
use crate::gen::{op_index, Inputs, OP_NAMES};
use crate::report::{metric, Metric};
use cq::ConjunctiveQuery;
use hypertree_core::{DecompCache, HypertreeDecomposition};
use relation::Database;
use service::{plan_key, Op, PlanCache, PrepareConfig, PreparedQuery, Service};
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `eval.reduce`.
    pub name: &'static str,
    /// Request id shared by the spans of one request (or one batch).
    pub req: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was made.
    pub end_ns: u64,
    /// Timed beside its parent on the same inputs and subtracted from it.
    pub detached: bool,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans in memory, written out at exit.
pub struct Recorder {
    epoch: Instant,
    /// Every span, in opening order.
    pub spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: 0,
            end_ns: 0,
            detached: false,
        });
        let id = self.spans.len() - 1;
        self.spans[id].start_ns = self.now();
        id
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, req, Some(parent));
        let out = std::hint::black_box(f());
        self.close(id);
        (out, id)
    }

    fn detach(&mut self, id: usize, from: usize) {
        self.spans[id].parent = Some(from);
        self.spans[id].detached = true;
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"detached\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns, s.detached
            )?;
        }
        out.flush()
    }
}

/// Per-request facts the replay sees beside the spans.
#[derive(Clone, Copy, Debug, Default)]
struct Facts {
    op: usize,
    path: usize,
    width: usize,
    nodes: usize,
    cells: usize,
    node_rows: f64,
    node_bound: f64,
    before: usize,
    after: usize,
}

/// Replay state.
pub struct Replayer<'a> {
    inputs: &'a Inputs,
    refs: &'a References,
    svc: &'a Service,
    plans: PlanCache,
    decomps: DecompCache,
    cfg: PrepareConfig,
    /// Decompositions by decomposition-cache key.
    hds: HashMap<String, Arc<HypertreeDecomposition>>,
    /// Texts whose plan was checked against `Service::explain`.
    verified: Vec<bool>,
    rec: Recorder,
    next: u64,
    /// Request ids below this are the warm-up pass.
    warm_ids: u64,
    /// One entry per replayed request (batch members included).
    facts: Vec<(u64, Facts)>,
    /// Per batch: (request id, members, distinct plan keys).
    batches: Vec<(u64, usize, usize)>,
    /// Steps replayed after the warm-up (requests, or batches).
    steps: usize,
    /// The replay's own snapshot and its swap state.
    db: Database,
    swap: Swapper,
    /// Failed or wrong requests.
    pub failed: usize,
    /// Requests replayed and checked, the warm-up pass included.
    pub attempted: usize,
    /// The first few failures.
    pub failures: Vec<String>,
}

impl<'a> Replayer<'a> {
    /// A replay of `p`'s workload. `p.svc` is only asked for `explain`.
    fn new(p: &'a Prepared) -> Self {
        Replayer {
            inputs: &p.inputs,
            refs: &p.refs,
            svc: &p.svc,
            plans: PlanCache::new(),
            decomps: DecompCache::new(),
            cfg: PrepareConfig::default(),
            hds: HashMap::new(),
            verified: vec![false; p.inputs.texts.len()],
            rec: Recorder::new(),
            next: 0,
            warm_ids: 0,
            facts: Vec::new(),
            batches: Vec::new(),
            steps: 0,
            db: p.inputs.fresh_db(0),
            swap: Swapper { db: 0 },
            failed: 0,
            attempted: 0,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    fn next_id(&mut self) -> u64 {
        self.next += 1;
        self.next - 1
    }

    /// Warm the replay the way the untraced run is warmed: every distinct
    /// text prepared once, in order (as set-up warms the service), then
    /// one replayed pass. Measuring starts after it.
    fn warm(&mut self) {
        for t in 0..self.inputs.texts.len() {
            let req = self.next_id();
            let root = self.rec.open("warm", req, None);
            if let Some((q, key)) = self.parse(t, req, root) {
                self.resolve(q, key, req, root);
            }
            self.rec.close(root);
        }
        for _ in 0..self.pass_len() {
            self.step();
        }
        self.warm_ids = self.next;
    }

    fn parse(
        &mut self,
        text: usize,
        req: u64,
        parent: usize,
    ) -> Option<(ConjunctiveQuery, String)> {
        let src = &self.inputs.texts[text];
        let (q, _) = self
            .rec
            .time("cq.parse", req, parent, || cq::parse_query(src));
        let q = match q {
            Ok(q) => q,
            Err(e) => {
                self.fail(format!("text {text}: {e}"));
                return None;
            }
        };
        let (key, _) = self
            .rec
            .time("service.plan_key", req, parent, || plan_key(&q));
        Some((q, key))
    }

    /// Plan-cache lookup, and on a miss the preparation with its inner
    /// join-tree test and decomposition timed beside it.
    fn resolve(
        &mut self,
        q: ConjunctiveQuery,
        key: String,
        req: u64,
        parent: usize,
    ) -> (Arc<PreparedQuery>, usize) {
        let plans = &self.plans;
        let (hit, _) = self
            .rec
            .time("service.plan_lookup", req, parent, || plans.get(&key));
        if let Some(plan) = hit {
            return (plan, 0);
        }
        let h = q.hypergraph();
        let (decomps, cfg) = (&self.decomps, &self.cfg);
        let (plan, prep) = self.rec.time("service.prepare", req, parent, || {
            PreparedQuery::prepare_parsed_with_key(q, key.clone(), decomps, cfg)
        });
        let (_, jt) = self.rec.time("hypergraph.join_tree", req, prep, || {
            hypergraph::acyclic::join_tree(&h)
        });
        self.rec.detach(jt, prep);
        let path = if plan.decomp_cache_hit() == Some(false) {
            let steps = self.cfg.exact_steps;
            let (auto, d) = self.rec.time("heuristics.decompose", req, prep, || {
                heuristics::decompose_auto(&h, steps)
            });
            self.rec.detach(d, prep);
            self.hds.insert(DecompCache::key_of(&h), Arc::new(auto.hd));
            2
        } else {
            1
        };
        let plan = Arc::new(plan);
        self.plans.insert_prepared(&key, Arc::clone(&plan));
        (plan, path)
    }

    /// Replay one single-client request against pool database `db`.
    fn request(&mut self, text: usize, op: Op, db: &Database, db_idx: usize) {
        let req = self.next_id();
        let root = self.rec.open("request", req, None);
        if let Some((q, key)) = self.parse(text, req, root) {
            let (plan, path) = self.resolve(q, key, req, root);
            self.evaluate(&plan, path, text, op, db, db_idx, req, root);
        }
        self.rec.close(root);
        self.attempted += 1;
    }

    /// Replay one batch: parse and key every member, prepare each
    /// distinct key once, then evaluate every member.
    fn batch(&mut self, members: &[(usize, Op)], db: &Database, db_idx: usize) {
        let req = self.next_id();
        let root = self.rec.open("batch", req, None);
        let mut uniques: Vec<(String, ConjunctiveQuery)> = Vec::new();
        let mut member_unique = Vec::with_capacity(members.len());
        for &(text, _) in members {
            let u = self.parse(text, req, root).map(|(q, key)| {
                match uniques.iter().position(|(k, _)| *k == key) {
                    Some(u) => u,
                    None => {
                        uniques.push((key, q));
                        uniques.len() - 1
                    }
                }
            });
            member_unique.push(u);
        }
        let distinct = uniques.len();
        let plans: Vec<(Arc<PreparedQuery>, usize)> = uniques
            .into_iter()
            .map(|(key, q)| self.resolve(q, key, req, root))
            .collect();
        for (&(text, op), u) in members.iter().zip(member_unique) {
            if let Some(u) = u {
                let (plan, path) = &plans[u];
                self.evaluate(plan, *path, text, op, db, db_idx, req, root);
            }
        }
        self.rec.close(root);
        self.batches.push((req, members.len(), distinct));
        self.attempted += members.len();
    }

    /// The evaluation chain of one request, through the plan's query.
    #[allow(clippy::too_many_arguments)]
    fn evaluate(
        &mut self,
        plan: &PreparedQuery,
        path: usize,
        text: usize,
        op: Op,
        db: &Database,
        db_idx: usize,
        req: u64,
        parent: usize,
    ) {
        let q = plan.query();
        let (h, hg) = self
            .rec
            .time("hypergraph.build", req, parent, || q.hypergraph());
        let Some(hd) = self.hds.get(&DecompCache::key_of(&h)).cloned() else {
            self.fail(format!("text {text}: no decomposition for a cyclic plan"));
            return;
        };
        let (complete, cp) = self
            .rec
            .time("core.complete", req, parent, || hd.complete(&h));
        if !self.verified[text] {
            // Plan identity: the replay evaluates through the decomposition
            // the service serves (same width, tree and covers).
            self.verified[text] = true;
            let ours: Vec<(usize, Option<usize>, Vec<&str>)> = complete
                .tree()
                .pre_order()
                .into_iter()
                .map(|n| {
                    let parent = complete.tree().parent(n).map(hypergraph::Ix::index);
                    let cover = complete.lambda(n).iter().map(|e| h.edge_name(e)).collect();
                    (hypergraph::Ix::index(n), parent, cover)
                })
                .collect();
            let mismatch = match self.svc.explain(&self.inputs.texts[text]) {
                Ok(e) => {
                    let served: Vec<(usize, Option<usize>, Vec<&str>)> = e
                        .nodes
                        .iter()
                        .map(|n| (n.id, n.parent, n.cover.iter().map(String::as_str).collect()))
                        .collect();
                    (e.width != hd.width() as u64 || served != ours).then(|| {
                        format!(
                            "replay plan has width {} and {} nodes, served plan width {} and {} nodes, or their trees differ",
                            hd.width(),
                            ours.len(),
                            e.width,
                            served.len()
                        )
                    })
                }
                Err(e) => Some(format!("explain failed: {e}")),
            };
            if let Some(m) = mismatch {
                self.fail(format!("text {text}: {m}"));
            }
        }
        let (bound, bd) = self
            .rec
            .time("eval.bind", req, parent, || eval::bind_all(q, db));
        let (reduced, red) = self.rec.time("eval.reduce", req, parent, || {
            eval::reduction::reduce(q, db, &hd)
        });
        for id in [hg, cp, bd] {
            self.rec.detach(id, red);
        }
        let (bound, reduced) = match (bound, reduced) {
            (Ok(b), Ok(r)) => (b, r),
            (Err(e), _) | (_, Err(e)) => {
                self.fail(format!("text {text}: {e}"));
                return;
            }
        };
        let mut facts = Facts {
            op: op_index(op),
            path,
            width: hd.width(),
            nodes: complete.len(),
            cells: reduced.size_cells(),
            ..Facts::default()
        };
        for (p, node) in complete.tree().nodes().zip(&reduced.nodes) {
            facts.node_rows += node.rel.len() as f64;
            facts.node_bound += complete
                .lambda(p)
                .iter()
                .map(|e| bound[hypergraph::Ix::index(e)].rel.len() as f64)
                .product::<f64>();
        }
        let ((pipe, mut rels), _) = self
            .rec
            .time("eval.pipeline_new", req, parent, || reduced.into_pipeline());
        let total = |rels: &[relation::Relation]| rels.iter().map(|r| r.len()).sum::<usize>();
        facts.before = total(&rels);
        let answer = match op {
            Op::Boolean => {
                let (b, _) = self
                    .rec
                    .time("eval.semijoin", req, parent, || pipe.boolean(&mut rels));
                facts.after = total(&rels);
                Answer::Bool(b)
            }
            Op::Enumerate => {
                let mut copy = rels.clone();
                let (_, sj) = self
                    .rec
                    .time("eval.semijoin", req, parent, || pipe.full_reduce(&mut copy));
                facts.after = total(&copy);
                let (out, en) = self.rec.time("eval.enumerate", req, parent, || {
                    pipe.enumerate(&mut rels, &q.head_vars())
                });
                self.rec.detach(sj, en);
                check::rows(&out)
            }
            Op::Count => {
                let (c, _) = self
                    .rec
                    .time("eval.count", req, parent, || pipe.count(&rels));
                facts.after = facts.before;
                Answer::Count(c)
            }
        };
        let expected = self.refs.expect(self.inputs, db_idx, text, op_index(op));
        if answer != expected {
            self.fail(format!(
                "text {text} {op:?}: replay got {answer:?}, expected {expected:?}"
            ));
        }
        self.facts.push((req, facts));
    }

    /// The recorded spans.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Steps in one pass of the request sequence (requests, or batches).
    fn pass_len(&self) -> usize {
        self.inputs.seq.len().div_ceil(self.inputs.batch)
    }

    /// Replay the next request (or batch).
    fn step(&mut self) {
        let inputs = self.inputs;
        let b = self.steps;
        if inputs.batch > 1 {
            let db = &mut self.db;
            self.swap.before_batch(inputs, b, |fresh| *db = fresh);
            let members = inputs
                .seq
                .chunks(inputs.batch)
                .nth(b % self.pass_len())
                .unwrap_or_default();
            let db = std::mem::take(&mut self.db);
            self.batch(members, &db, self.swap.db);
            self.db = db;
        } else {
            let (text, op) = inputs.seq[b % inputs.seq.len()];
            let db = std::mem::take(&mut self.db);
            self.request(text, op, &db, 0);
            self.db = db;
        }
        self.steps += 1;
    }
}

/// The traced run: after warming the replay, alternate one pass of the
/// untraced service with one pass of the replay until `limit`, so both
/// sample the same moments of the host's speed.
pub fn interleaved(p: &Prepared, limit: Limit) -> (Measured, Replayer<'_>) {
    let mut runner = drive::Runner::new(p);
    runner.warm_up();
    let mut r = Replayer::new(p);
    r.warm();
    let t0 = Instant::now();
    while !limit.reached(t0.elapsed(), runner.requests()) {
        for _ in 0..runner.pass_len() {
            runner.step();
        }
        for _ in 0..r.pass_len() {
            r.step();
        }
    }
    (runner.finish(), r)
}

/// Self times aggregated per span name.
#[derive(Default)]
struct SelfTimes {
    /// name → (self ns over measured requests, self ns over all, events over all)
    by_name: HashMap<&'static str, (u64, u64, u64)>,
    /// Root request id → (root duration, Σ direct-children durations).
    roots: HashMap<u64, (u64, u64)>,
}

fn self_times(r: &Replayer) -> SelfTimes {
    let spans = &r.rec.spans;
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.dur();
        }
    }
    let mut out = SelfTimes::default();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            None => {
                out.roots.insert(s.req, (s.dur(), children[i]));
            }
            Some(_) => {
                let own = s.dur().saturating_sub(children[i]);
                let e = out.by_name.entry(s.name).or_default();
                if s.req >= r.warm_ids {
                    e.0 += own;
                }
                e.1 += own;
                e.2 += 1;
            }
        }
    }
    out
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order, and
/// the reconciliation and profile lines printed beside them.
pub fn per_layer(p: &Prepared, m: &Measured, r: &Replayer) -> Vec<Metric> {
    let st = self_times(r);
    let facts: Vec<&Facts> = r
        .facts
        .iter()
        .filter(|(id, _)| *id >= r.warm_ids)
        .map(|(_, f)| f)
        .collect();
    let n = facts.len().max(1) as f64;
    // Mean self time per measured request, and per event over all events
    // (warm-up included: on a hot workload every miss is in the warm-up).
    let per_req = |name: &str| st.by_name.get(name).map_or(0.0, |e| e.0 as f64) / n;
    let per_event = |name: &str| {
        st.by_name.get(name).map_or(0.0, |e| {
            if e.2 == 0 {
                0.0
            } else {
                e.1 as f64 / e.2 as f64
            }
        })
    };
    let ops = |slot: usize| facts.iter().filter(|f| f.op == slot).count().max(1) as f64;
    let mean = |f: &dyn Fn(&Facts) -> f64| facts.iter().map(|x| f(x)).sum::<f64>() / n;
    let sum = |f: &dyn Fn(&Facts) -> f64| facts.iter().map(|x| f(x)).sum::<f64>();
    let counters = m.first_pass.unwrap_or(m.total);

    // Replay Σ self time and root time per measured request (or batch).
    let measured_roots: Vec<(u64, (u64, u64))> = st
        .roots
        .iter()
        .filter(|(id, _)| **id >= r.warm_ids)
        .map(|(id, v)| (*id, *v))
        .collect();
    let roots = measured_roots.len().max(1) as f64;
    let replay_self = measured_roots.iter().map(|(_, v)| v.1 as f64).sum::<f64>() / roots;
    let replay_root = measured_roots.iter().map(|(_, v)| v.0 as f64).sum::<f64>() / roots;
    let (unaccounted_ns, parallel_eff, dedup, overhead) = if p.inputs.batch > 1 {
        let workers = std::thread::available_parallelism()
            .map_or(1, |w| w.get())
            .min(p.inputs.batch) as f64;
        let wall =
            m.batches.iter().map(|b| b.0 as f64).sum::<f64>() / m.batches.len().max(1) as f64;
        let members = r
            .batches
            .iter()
            .filter(|b| b.0 >= r.warm_ids)
            .map(|b| b.1 as f64)
            .sum::<f64>()
            / roots;
        let dedup = r
            .batches
            .iter()
            .filter(|b| b.0 >= r.warm_ids)
            .map(|b| b.2 as f64 / b.1 as f64)
            .sum::<f64>()
            / roots;
        (
            (workers * wall - replay_self) / members.max(1.0),
            replay_self / (workers * wall),
            dedup,
            replay_root / wall - 1.0,
        )
    } else {
        let lat =
            m.samples.iter().map(|s| s.ns as f64).sum::<f64>() / m.samples.len().max(1) as f64;
        (
            lat - replay_self,
            replay_self / lat,
            1.0,
            replay_root / lat - 1.0,
        )
    };
    print_reconciliation(p, m, r, &st);

    let us = 1e-3;
    let msf = 1e-6;
    let metrics = vec![
        metric("cq.parse_us", "us", per_req("cq.parse") * us),
        metric(
            "service.plan_key_us",
            "us",
            per_req("service.plan_key") * us,
        ),
        metric(
            "service.plan_lookup_us",
            "us",
            per_req("service.plan_lookup") * us,
        ),
        metric(
            "service.prepare_ms",
            "ms",
            per_event("service.prepare") * msf,
        ),
        metric("service.plan_hit_ratio", "ratio", counters.plan_hit_ratio()),
        metric(
            "service.plan_evictions",
            "count",
            counters.plan_evictions as f64,
        ),
        metric("service.unaccounted_us", "us", unaccounted_ns * us),
        metric("service.batch_dedup_ratio", "ratio", dedup),
        metric("service.batch_parallel_eff", "ratio", parallel_eff),
        metric(
            "hypergraph.build_us",
            "us",
            per_req("hypergraph.build") * us,
        ),
        metric(
            "hypergraph.join_tree_us",
            "us",
            per_event("hypergraph.join_tree") * us,
        ),
        metric("core.complete_us", "us", per_req("core.complete") * us),
        metric("core.plan_nodes", "count", mean(&|f| f.nodes as f64)),
        metric(
            "core.decomp_hit_ratio",
            "ratio",
            counters.decomp_hit_ratio(),
        ),
        metric(
            "heuristics.decompose_ms",
            "ms",
            per_event("heuristics.decompose") * msf,
        ),
        metric("heuristics.plan_width", "atoms", mean(&|f| f.width as f64)),
        metric("eval.bind_us", "us", per_req("eval.bind") * us),
        metric("eval.node_build_ms", "ms", per_req("eval.reduce") * msf),
        metric("eval.node_cells", "count", mean(&|f| f.cells as f64)),
        metric(
            "eval.node_fill_ratio",
            "ratio",
            sum(&|f| f.node_rows) / sum(&|f| f.node_bound).max(1.0),
        ),
        metric(
            "eval.pipeline_new_us",
            "us",
            per_req("eval.pipeline_new") * us,
        ),
        metric("eval.semijoin_ms", "ms", per_req("eval.semijoin") * msf),
        metric(
            "eval.semijoin_survivor_ratio",
            "ratio",
            sum(&|f| if f.op == 1 { 0.0 } else { f.after as f64 })
                / sum(&|f| if f.op == 1 { 0.0 } else { f.before as f64 }).max(1.0),
        ),
        metric(
            "eval.join_ms",
            "ms",
            per_req("eval.enumerate") * n / ops(op_index(Op::Enumerate)) * msf,
        ),
        metric(
            "eval.count_ms",
            "ms",
            per_req("eval.count") * n / ops(op_index(Op::Count)) * msf,
        ),
        metric(
            "relation.index_builds",
            "count",
            m.total.index_builds as f64 / m.samples.len().max(1) as f64,
        ),
        metric("bench.trace_overhead_ratio", "ratio", overhead),
    ];
    let preparation_us = (per_req("heuristics.decompose") + per_req("service.prepare")) * us;
    print_profile(p, m, &metrics, preparation_us);
    metrics
}

/// Per request class (op × cache path): untraced `Service::execute`
/// latency = replay Σ layer self times + unaccounted.
fn print_reconciliation(p: &Prepared, m: &Measured, r: &Replayer, st: &SelfTimes) {
    if p.inputs.batch > 1 {
        return; // members share their batch's wall time: no per-class latency
    }
    let mut untraced: HashMap<(usize, usize), (f64, usize)> = HashMap::new();
    for s in &m.samples {
        let e = untraced.entry((s.op, s.path)).or_default();
        e.0 += s.ns as f64;
        e.1 += 1;
    }
    let mut replayed: HashMap<(usize, usize), (f64, usize)> = HashMap::new();
    for (id, f) in r.facts.iter().filter(|(id, _)| *id >= r.warm_ids) {
        let e = replayed.entry((f.op, f.path)).or_default();
        e.0 += st.roots.get(id).map_or(0, |v| v.1) as f64;
        e.1 += 1;
    }
    let mut classes: Vec<_> = untraced.keys().chain(replayed.keys()).copied().collect();
    classes.sort_unstable();
    classes.dedup();
    for c in classes {
        let (u, un) = untraced.get(&c).copied().unwrap_or_default();
        let (s, sn) = replayed.get(&c).copied().unwrap_or_default();
        let u_mean = u / un.max(1) as f64 / 1e3;
        let s_mean = s / sn.max(1) as f64 / 1e3;
        println!(
            "reconcile {:<10} {:<12} untraced n={un:<6} {u_mean:>10.1}us = layers n={sn:<6} {s_mean:>10.1}us + unaccounted {:>9.1}us",
            OP_NAMES[c.0],
            drive::PATH_NAMES[c.1],
            u_mean - s_mean
        );
    }
}

/// The shares of request time the workload designs predict.
fn print_profile(p: &Prepared, m: &Measured, metrics: &[Metric], preparation_us: f64) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|x| x.name == name)
            .map_or(0.0, |x| x.value)
    };
    let request_us = if p.inputs.batch > 1 {
        return;
    } else {
        m.samples.iter().map(|s| s.ns as f64).sum::<f64>() / m.samples.len().max(1) as f64 / 1e3
    };
    let share = |us: f64| 100.0 * us / request_us;
    let front = get("cq.parse_us")
        + get("service.plan_key_us")
        + get("service.plan_lookup_us")
        + get("hypergraph.build_us")
        + get("core.complete_us");
    let invariant = get("cq.parse_us")
        + get("service.plan_key_us")
        + get("hypergraph.build_us")
        + get("core.complete_us")
        + get("eval.pipeline_new_us");
    // Per-request eval work: join and count are per event, so weight them
    // back by their op's share of requests.
    let n = m.samples.len().max(1) as f64;
    let share_of = |slot: usize| m.samples.iter().filter(|s| s.op == slot).count() as f64 / n;
    let eval_work = 1e3
        * (get("eval.node_build_ms")
            + get("eval.semijoin_ms")
            + get("eval.join_ms") * share_of(op_index(Op::Enumerate))
            + get("eval.count_ms") * share_of(op_index(Op::Count)));
    println!(
        "profile: request {request_us:.1}us; eval work (node build+sweeps+join+count) {:.1}%; \
         parse+key+lookup+hypergraph+complete {:.1}%; \
         plan-invariant (parse+key+hypergraph+complete+pipeline_new) {:.1}%; \
         preparation (decompose+prepare) {:.1}%",
        share(eval_work),
        share(front),
        share(invariant),
        share(preparation_us),
    );
}
