//! Seeded inputs for the four workloads: query texts, the request
//! sequence of one pass, and the databases.
//!
//! Everything here is a function of the seed and the [`Scale`]; the
//! service only ever sees the generated texts and databases.

use crate::{Scale, Workload};
use cq::{ConjunctiveQuery, Term};
use rand::rngs::StdRng;
use rand::RngExt;
use relation::Database;
use service::{Op, Request};
use workloads::{families, large, random, xc3s};

/// A query body with variables numbered `0..nvars` in first-occurrence
/// order, plus the head variables. Rendering picks the variable and head
/// names, which is how α-renamed and head-renamed re-sends are made.
#[derive(Clone, Debug)]
pub struct Shape {
    /// `(predicate, arguments)` per atom; `Ok(v)` is variable `v`,
    /// `Err(c)` the constant `c`.
    pub atoms: Vec<(String, Vec<Result<usize, u64>>)>,
    /// Number of distinct variables.
    pub nvars: usize,
    /// Head variables.
    pub head: Vec<usize>,
}

impl Shape {
    /// The body of `q` with every predicate renamed by `rename`.
    pub fn from_query(q: &ConjunctiveQuery, rename: impl Fn(usize, &str) -> String) -> Shape {
        let mut ids = vec![usize::MAX; q.num_vars()];
        let mut nvars = 0;
        let atoms = q
            .atoms()
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let args = a
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => {
                            let v = hypergraph::Ix::index(*v);
                            if ids[v] == usize::MAX {
                                ids[v] = nvars;
                                nvars += 1;
                            }
                            Ok(ids[v])
                        }
                        Term::Const(c) => Err(*c),
                    })
                    .collect();
                (rename(i, &a.predicate), args)
            })
            .collect();
        Shape {
            atoms,
            nvars,
            head: Vec::new(),
        }
    }

    /// Render as query text with head predicate `head` and variables
    /// named `{var}{i}`.
    pub fn render(&self, head: &str, var: &str) -> String {
        let name = |v: usize| format!("{var}{v}");
        let mut out = String::from(head);
        if !self.head.is_empty() {
            let hv: Vec<String> = self.head.iter().map(|&v| name(v)).collect();
            out.push_str(&format!("({})", hv.join(",")));
        }
        out.push_str(" :- ");
        let body: Vec<String> = self
            .atoms
            .iter()
            .map(|(p, args)| {
                let args: Vec<String> = args
                    .iter()
                    .map(|a| match a {
                        Ok(v) => name(*v),
                        Err(c) => c.to_string(),
                    })
                    .collect();
                format!("{p}({})", args.join(","))
            })
            .collect();
        out.push_str(&body.join(", "));
        out.push('.');
        out
    }

    /// The same body with every variable in the head (its assignment
    /// count is the row count of its naive evaluation).
    pub fn full_head(&self) -> Shape {
        Shape {
            head: (0..self.nvars).collect(),
            ..self.clone()
        }
    }
}

/// A base query: the shape, and whether every database plants an answer.
#[derive(Clone, Debug)]
pub struct Base {
    /// The query.
    pub shape: Shape,
    /// Planted on every database of the workload, so Boolean must be true.
    pub planted: bool,
}

/// How to make a workload's databases: `dbs` in [`Inputs`] are the pool;
/// a batch-churn swap installs a freshly generated (never indexed) copy
/// of the next pool entry.
#[derive(Clone, Debug)]
struct DbRecipe {
    seed: u64,
    domain: u64,
    rows: usize,
    /// Plant one answer per base query.
    planted: bool,
}

/// One workload's generated inputs.
pub struct Inputs {
    /// Base queries (answers are per base and database).
    pub bases: Vec<Base>,
    /// Distinct request texts; `base_of[t]` is the base query of text `t`
    /// (α-renamed and head-renamed re-sends share their base's answers).
    pub texts: Vec<String>,
    /// Base query of each text.
    pub base_of: Vec<usize>,
    /// One pass of the request sequence, as `(text, op)`.
    pub seq: Vec<(usize, Op)>,
    /// Requests per batch; `1` = single client calling `execute`.
    pub batch: usize,
    /// Swap the snapshot before every `swap_every`-th batch (0 = never).
    pub swap_every: usize,
    /// Database pool; `dbs[0]` is installed at set-up.
    pub dbs: Vec<Database>,
    recipes: Vec<DbRecipe>,
}

/// Index of an op in per-op arrays.
pub fn op_index(op: Op) -> usize {
    match op {
        Op::Boolean => 0,
        Op::Count => 1,
        Op::Enumerate => 2,
    }
}

/// Op names, in [`op_index`] order.
pub const OP_NAMES: [&str; 3] = ["boolean", "count", "enumerate"];

/// The request for `(text, op)`.
fn request(text: &str, op: Op) -> Request {
    Request {
        text: text.to_string(),
        op,
    }
}

impl Inputs {
    /// A fresh, never-indexed copy of pool database `i`.
    pub fn fresh_db(&self, i: usize) -> Database {
        build_db(&self.bases, &self.recipes[i])
    }

    /// Prebuilt requests, indexed `text * 3 + op_index(op)`.
    pub fn requests(&self) -> Vec<Request> {
        self.texts
            .iter()
            .flat_map(|t| {
                [Op::Boolean, Op::Count, Op::Enumerate]
                    .into_iter()
                    .map(move |op| request(t, op))
            })
            .collect()
    }
}

/// The op mix of every workload: boolean, boolean, count, enumerate.
const MIX: [Op; 4] = [Op::Boolean, Op::Boolean, Op::Count, Op::Enumerate];

fn pick_op(rng: &mut StdRng) -> Op {
    MIX[rng.random_range(0..MIX.len())]
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

/// One or two distinct head variables of `shape`, drawn from `rng`.
fn pick_head(rng: &mut StdRng, shape: &mut Shape) {
    let a = rng.random_range(0..shape.nvars);
    shape.head = vec![a];
    if rng.random_bool(0.5) && shape.nvars > 1 {
        let b = (a + 1 + rng.random_range(0..shape.nvars - 1)) % shape.nvars;
        shape.head.push(b);
    }
}

/// A fixed head for query `i` of a hot working set: one variable for
/// even `i`, two (opposite ends of the body) for odd `i`. The head orders
/// the query's variables, and so its decomposition: a head drawn from the
/// seed would change the plans, and with them the work, from seed to seed.
fn fixed_head(i: usize, shape: &mut Shape) {
    shape.head = if i.is_multiple_of(2) || shape.nvars < 2 {
        vec![0]
    } else {
        vec![0, shape.nvars / 2]
    };
}

/// A query's predicates prefixed, so queries in one database never share
/// a relation (or clash on arity).
fn prefixed(q: &ConjunctiveQuery, prefix: &str) -> Shape {
    Shape::from_query(q, |_, p| format!("{prefix}{p}"))
}

fn parse(text: &str) -> ConjunctiveQuery {
    cq::parse_query(text).unwrap_or_else(|e| panic!("generated text must parse: {e}: {text}"))
}

/// Generate every pool database's relations for `bases`.
fn build_db(bases: &[Base], recipe: &DbRecipe) -> Database {
    let mut rng = random::rng(recipe.seed);
    let mut db = Database::new();
    for b in bases {
        let q = parse(&b.shape.render("ans", "X"));
        let part = if recipe.planted {
            random::planted_database(&mut rng, &q, recipe.domain, recipe.rows)
        } else {
            random::random_database(&mut rng, &q, recipe.domain, recipe.rows)
        };
        for (name, rel) in part.relations() {
            // A planted tuple can repeat a random one; keep set semantics.
            let mut rel = rel.clone();
            rel.dedup();
            db.insert(name.to_string(), rel);
        }
    }
    db
}

/// Distinct texts with their bases, deduplicated.
#[derive(Default)]
struct TextTable {
    texts: Vec<String>,
    base_of: Vec<usize>,
    index: std::collections::HashMap<String, usize>,
}

impl TextTable {
    fn add(&mut self, text: String, base: usize) -> usize {
        if let Some(&t) = self.index.get(&text) {
            return t;
        }
        self.texts.push(text.clone());
        self.base_of.push(base);
        self.index.insert(text, self.texts.len() - 1);
        self.texts.len() - 1
    }
}

/// The data-heavy query set shared by `hot-data` and `batch-churn`:
/// cycles, grids and arity-3 hypercycles of graded size, each with its own
/// predicate names. Thirteen queries of graded cost: with an odd count,
/// each op's median request is the middle query's, inside that query's
/// latency cluster rather than on the edge between two queries, where a
/// small shift of the host's speed would move it from one to the other.
fn data_queries() -> Vec<Base> {
    let qs = [
        (families::cycle(5), "c5_"),
        (families::cycle(6), "c6_"),
        (families::cycle(7), "c7_"),
        (families::cycle(8), "c8_"),
        (families::cycle(9), "c9_"),
        (families::cycle(10), "c10_"),
        (families::grid(2, 3), "g23_"),
        (families::grid(2, 4), "g24_"),
        (families::grid(3, 3), "g33_"),
        (families::hypercycle(4, 3), "h4_"),
        (families::hypercycle(5, 3), "h5_"),
        (families::hypercycle(6, 3), "h6_"),
        (families::hypercycle(7, 3), "h7_"),
    ];
    qs.iter()
        .enumerate()
        .map(|(i, (q, prefix))| {
            let mut shape = prefixed(q, prefix);
            fixed_head(i, &mut shape);
            Base {
                shape,
                planted: true,
            }
        })
        .collect()
}

/// The fig11 gadget query (the Section 7 XC3S reduction of a positive
/// instance). It reuses predicates at several arities; `generate` renames
/// them per arity so it binds against one database.
fn xc3s_query() -> ConjunctiveQuery {
    let inst = xc3s::Xc3sInstance::new(6, vec![[0, 2, 3], [0, 1, 3], [2, 3, 5], [2, 4, 5]]);
    xc3s::reduce_to_query(&inst).query
}

/// Generate the inputs of `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    let mut rng = random::rng(seed);
    let tiny = scale == Scale::Tiny;
    match workload {
        Workload::HotData | Workload::BatchChurn => {
            let bases = data_queries();
            let mut table = TextTable::default();
            let batch_churn = workload == Workload::BatchChurn;
            let (rows, domain, pool) = match (batch_churn, tiny) {
                (false, false) => (200, 200, 1),
                (true, false) => (80, 80, 3),
                (false, true) => (12, 12, 1),
                (true, true) => (8, 8, 2),
            };
            let mut seq = Vec::new();
            let (batch, swap_every) = if batch_churn { (16, 4) } else { (1, 0) };
            if batch_churn {
                // Base text plus two α-renamed variants per query: a batch
                // carries exact duplicates and α-equivalent texts.
                let variants: Vec<[usize; 3]> = bases
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        ["X", "V", "W"].map(|var| table.add(b.shape.render("ans", var), i))
                    })
                    .collect();
                let batches = if tiny { 4 } else { 64 };
                for _ in 0..batches * batch {
                    let q = rng.random_range(0..bases.len());
                    let v = [0, 0, 1, 2][rng.random_range(0..4usize)];
                    seq.push((variants[q][v], pick_op(&mut rng)));
                }
            } else {
                // Every (query, op) in the 2:1:1 mix once per pass, plus
                // one extra boolean so the pass length is odd.
                for (i, b) in bases.iter().enumerate() {
                    let t = table.add(b.shape.render("ans", "X"), i);
                    seq.extend(MIX.iter().map(|&op| (t, op)));
                }
                seq.push((rng.random_range(0..bases.len()), Op::Boolean));
                shuffle(&mut rng, &mut seq);
            }
            finish(
                bases, table, seq, batch, swap_every, seed, domain, rows, pool, true,
            )
        }
        Workload::HotWide => {
            let mut sources: Vec<(ConjunctiveQuery, &str)> = large::large_tier()
                .into_iter()
                .filter(|i| i.name == "band/n120_m150_w8" || i.name == "band/n300_m400_w10")
                .zip(["a", "b"])
                .map(|(i, p)| (cq::canonical_query(&i.h), p))
                .collect();
            sources.push((xc3s_query(), "x"));
            if tiny {
                sources.truncate(1);
            }
            let bases: Vec<Base> = sources
                .iter()
                .enumerate()
                .map(|(i, (q, prefix))| {
                    // Per-arity names: the gadget reuses predicates at
                    // several arities.
                    let mut shape =
                        Shape::from_query(q, |i, p| format!("{prefix}{p}_{}", q.atom(i).arity()));
                    fixed_head(i, &mut shape);
                    Base {
                        shape,
                        planted: true,
                    }
                })
                .collect();
            let mut table = TextTable::default();
            let mut seq = Vec::new();
            for (i, b) in bases.iter().enumerate() {
                let t = table.add(b.shape.render("ans", "X"), i);
                seq.extend(MIX.iter().map(|&op| (t, op)));
            }
            seq.push((rng.random_range(0..bases.len()), Op::Boolean));
            shuffle(&mut rng, &mut seq);
            finish(bases, table, seq, 1, 0, seed, 10, 2, 1, true)
        }
        Workload::ColdShapes => cold_shapes(&mut rng, seed, tiny),
    }
}

#[allow(clippy::too_many_arguments)]
fn finish(
    bases: Vec<Base>,
    table: TextTable,
    seq: Vec<(usize, Op)>,
    batch: usize,
    swap_every: usize,
    seed: u64,
    domain: u64,
    rows: usize,
    pool: usize,
    planted: bool,
) -> Inputs {
    let recipes: Vec<DbRecipe> = (0..pool as u64)
        .map(|i| DbRecipe {
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i + 1),
            domain,
            rows,
            planted,
        })
        .collect();
    let dbs = recipes.iter().map(|r| build_db(&bases, r)).collect();
    Inputs {
        bases,
        texts: table.texts,
        base_of: table.base_of,
        seq,
        batch,
        swap_every,
        dbs,
        recipes,
    }
}

/// `cold-shapes`: a pool of distinct cyclic shapes, larger than both the
/// plan cache (256) and the decomposition cache (1024), walked in order,
/// so each base request misses both caches. Interleaved re-sends of a
/// recent shape: α-renamed (a plan-cache hit through the α-invariant
/// plan key) and head-renamed (a plan-cache miss whose hypergraph, and
/// so decomposition-cache key, is unchanged: a decomposition hit).
///
/// The seed draws the random shapes, the heads, the re-sent shapes and
/// the order of the ops. The family mix, the cycle and grid sizes, the
/// share of each re-send kind and each kind's op mix are the same for
/// every seed: a per-op median falls where the cheap cache hits give way
/// to the decomposition misses, so a seed that moved those shares would
/// move the median.
fn cold_shapes(rng: &mut StdRng, seed: u64, tiny: bool) -> Inputs {
    let pool = if tiny { 24 } else { 1280 };
    let mut bases = Vec::with_capacity(pool);
    while bases.len() < pool {
        let i = bases.len();
        let (tens, unit) = (i / 10, i % 10);
        let q = match unit {
            0..=6 => random::random_query(rng, 14, 16, 3),
            7 | 8 => families::cycle(4 + (2 * tens + unit - 7) % 37),
            _ => families::grid(2 + tens % 3, 3 + (tens / 3) % 4),
        };
        if hypergraph::acyclic::join_tree(&q.hypergraph()).is_some() {
            continue; // every shape is cyclic: it goes through the decomposer
        }
        let mut shape = Shape::from_query(&q, |j, _| format!("s{i}_{j}"));
        pick_head(rng, &mut shape);
        bases.push(Base {
            shape,
            planted: false,
        });
    }
    // Each kind of request (base, α-renamed, head-renamed) draws its ops
    // from its own shuffled 2:1:1 decks.
    let mut decks: [Vec<Op>; 3] = Default::default();
    let mut op = |rng: &mut StdRng, kind: usize| {
        if decks[kind].is_empty() {
            decks[kind] = MIX.to_vec();
            shuffle(rng, &mut decks[kind]);
        }
        decks[kind].pop().expect("refilled above")
    };
    let mut table = TextTable::default();
    let mut seq = Vec::new();
    for (i, b) in bases.iter().enumerate() {
        let t = table.add(b.shape.render("ans", "X"), i);
        seq.push((t, op(rng, 0)));
        let recent = |rng: &mut StdRng| i - rng.random_range(0..=i.min(16));
        // Two in five base requests are followed by an α-renamed re-send,
        // one in four by a head-renamed one.
        if i % 5 < 2 {
            let j = recent(rng);
            let t = table.add(bases[j].shape.render("ans", "V"), j);
            seq.push((t, op(rng, 1)));
        }
        if i % 4 == 3 {
            let j = recent(rng);
            let t = table.add(bases[j].shape.render("resend", "X"), j);
            seq.push((t, op(rng, 2)));
        }
    }
    finish(bases, table, seq, 1, 0, seed, 4, 6, 1, false)
}
