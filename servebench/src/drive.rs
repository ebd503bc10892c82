//! The untraced run: set-up, then the workload driven through the public
//! `service::Service` API for the measured phase, every answer checked.

use crate::check::{self, References};
use crate::gen::{self, op_index, Inputs};
use crate::report::{self, metric, Metric};
use crate::{RunSpec, Workload};
use service::{Request, Service, ServiceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A set-up service with its inputs and reference answers.
pub struct Prepared {
    /// The generated inputs.
    pub inputs: Inputs,
    /// The service, warm: every distinct text prepared once.
    pub svc: Service,
    /// Seconds of each timed set-up (generate, build, warm): this one's,
    /// and those [`run`] timed between its steps.
    pub setup_s: Vec<f64>,
    /// Reference answers.
    pub refs: References,
}

/// Share of the measured time that [`run`] spends timing more set-ups
/// between its steps. The host's speed changes state every few seconds,
/// so set-ups timed across the whole run give a steadier median than
/// set-ups timed back to back.
const SETUP_SHARE: f64 = 0.1;

/// One set-up: generate the inputs, build the service, warm it by
/// preparing every distinct text once.
fn set_up(spec: &RunSpec) -> Result<(Inputs, Service), String> {
    let inputs = gen::generate(spec.workload, spec.seed, spec.scale);
    let svc = Service::with_config(Arc::new(inputs.dbs[0].clone()), ServiceConfig::default());
    for text in &inputs.texts {
        svc.prepare(text)
            .map_err(|e| format!("warm-up prepare failed: {e}: {text}"))?;
    }
    Ok((inputs, svc))
}

/// A timed set-up, then the reference answers (untimed).
pub fn setup(spec: &RunSpec) -> Result<Prepared, String> {
    let t = Instant::now();
    let (inputs, svc) = set_up(spec)?;
    let setup_s = vec![t.elapsed().as_secs_f64()];
    let refs = check::references(&inputs)?;
    Ok(Prepared {
        inputs,
        svc,
        setup_s,
        refs,
    })
}

/// Counters that repeat exactly for a single-client workload: service
/// cache deltas and physical index builds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Plan-cache evictions.
    pub plan_evictions: u64,
    /// Decomposition-cache hits.
    pub decomp_hits: u64,
    /// Decomposition-cache misses.
    pub decomp_misses: u64,
    /// `relation::stats::index_builds_total` delta.
    pub index_builds: u64,
}

impl Counters {
    /// The current absolute values.
    pub fn now(svc: &Service) -> Counters {
        let s = svc.stats();
        Counters {
            plan_hits: s.plan_hits,
            plan_misses: s.plan_misses,
            plan_evictions: s.plan_evictions,
            decomp_hits: s.decomp_hits,
            decomp_misses: s.decomp_misses,
            index_builds: relation::stats::index_builds_total(),
        }
    }

    /// `self + other`.
    fn plus(self, other: Counters) -> Counters {
        Counters {
            plan_hits: self.plan_hits + other.plan_hits,
            plan_misses: self.plan_misses + other.plan_misses,
            plan_evictions: self.plan_evictions + other.plan_evictions,
            decomp_hits: self.decomp_hits + other.decomp_hits,
            decomp_misses: self.decomp_misses + other.decomp_misses,
            index_builds: self.index_builds + other.index_builds,
        }
    }

    /// `self - earlier`.
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            plan_hits: self.plan_hits - earlier.plan_hits,
            plan_misses: self.plan_misses - earlier.plan_misses,
            plan_evictions: self.plan_evictions - earlier.plan_evictions,
            decomp_hits: self.decomp_hits - earlier.decomp_hits,
            decomp_misses: self.decomp_misses - earlier.decomp_misses,
            index_builds: self.index_builds - earlier.index_builds,
        }
    }

    /// Plan-cache hits over lookups.
    pub fn plan_hit_ratio(&self) -> f64 {
        ratio(self.plan_hits, self.plan_hits + self.plan_misses)
    }

    /// Decomposition-cache hits over lookups.
    pub fn decomp_hit_ratio(&self) -> f64 {
        ratio(self.decomp_hits, self.decomp_hits + self.decomp_misses)
    }
}

/// `a / b`, or 0 for an empty base.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Which caches a request went through: 0 = plan hit, 1 = plan miss with
/// a decomposition hit, 2 = decomposition miss.
pub(crate) fn path_of(delta: &Counters) -> usize {
    if delta.decomp_misses > 0 {
        2
    } else if delta.plan_misses > 0 {
        1
    } else {
        0
    }
}

/// Path names, in [`path_of`] order.
pub(crate) const PATH_NAMES: [&str; 3] = ["plan-hit", "plan-miss", "decomp-miss"];

/// One served request (a batch member counts its batch's wall time).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Latency, nanoseconds.
    pub ns: u64,
    /// Op slot ([`op_index`]).
    pub op: usize,
    /// Cache path ([`path_of`]; 0 for batch members).
    pub path: usize,
    /// Which request of the cycle this is ([`Runner`]): samples with the
    /// same slot serve the same request in the same service state.
    pub slot: usize,
}

/// The service counts every single request and both promotes each 16th
/// (`ServiceConfig::trace_sample`) onto the traced path and times it.
/// A single-client request is one request of a cycle of passes that
/// brings every request back at the same point of that count.
const PROMOTION_PERIOD: usize = 16;

/// The measured phase of one run.
#[derive(Default)]
pub struct Measured {
    /// Per request.
    pub samples: Vec<Sample>,
    /// Per batch: wall nanoseconds and member count (batch workloads).
    pub batches: Vec<(u64, usize)>,
    /// Requests whose answers were checked, the warm-up pass included.
    pub attempted: usize,
    /// Of those, the requests that failed or answered wrongly.
    pub failed: usize,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Counter deltas over the first pass of the request sequence.
    pub first_pass: Option<Counters>,
    /// Counter deltas over the whole phase.
    pub total: Counters,
    /// Peak resident set size while serving, MiB ([`run`]).
    pub peak_rss_mb: f64,
}

impl Measured {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

/// When the measured phase ends.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// After this much measured time.
    Time(Duration),
    /// After this many requests.
    Requests(usize),
}

impl Limit {
    /// Whether a phase that measured `elapsed` over `requests` is done.
    pub(crate) fn reached(self, elapsed: Duration, requests: usize) -> bool {
        match self {
            Limit::Time(d) => elapsed >= d,
            Limit::Requests(n) => requests >= n,
        }
    }
}

/// Swap state of a batch workload: which pool database is installed.
pub(crate) struct Swapper {
    /// Pool index of the installed snapshot.
    pub(crate) db: usize,
}

impl Swapper {
    /// Before batch `b`: install a fresh copy of the next pool database
    /// when a swap is due.
    pub(crate) fn before_batch(
        &mut self,
        inputs: &Inputs,
        b: usize,
        install: impl FnOnce(relation::Database),
    ) {
        if inputs.swap_every == 0 || b == 0 || !b.is_multiple_of(inputs.swap_every) {
            return;
        }
        self.db = (self.db + 1) % inputs.dbs.len();
        install(inputs.fresh_db(self.db));
    }
}

/// Drives the workload through the service one step (a request, or a
/// batch) at a time, checking every answer.
pub(crate) struct Runner<'a> {
    p: &'a Prepared,
    /// Prebuilt requests, `text * 3 + op_index(op)`.
    reqs: Vec<Request>,
    /// Prebuilt batches (batch workloads) and their `(text, op)` members.
    batches: Vec<Vec<Request>>,
    members: Vec<&'a [(usize, service::Op)]>,
    /// Steps taken: requests, or batches.
    steps: usize,
    /// Step at which measuring started (after the warm-up pass).
    from: usize,
    /// Requests in a cycle: one pass for a batch workload (batch members
    /// are not promoted), else enough passes to be a multiple of
    /// [`PROMOTION_PERIOD`].
    cycle: usize,
    swap: Swapper,
    /// Counter deltas summed over the steps so far.
    acc: Counters,
    measured: Duration,
    m: Measured,
}

impl<'a> Runner<'a> {
    /// A runner at the start of the request sequence.
    pub(crate) fn new(p: &'a Prepared) -> Self {
        let reqs = p.inputs.requests();
        let members: Vec<&[(usize, service::Op)]> = if p.inputs.batch > 1 {
            p.inputs.seq.chunks(p.inputs.batch).collect()
        } else {
            Vec::new()
        };
        let batches = members
            .iter()
            .map(|b| {
                b.iter()
                    .map(|&(t, op)| reqs[t * 3 + op_index(op)].clone())
                    .collect()
            })
            .collect();
        let pass = p.inputs.seq.len();
        let cycle = if members.is_empty() {
            pass * PROMOTION_PERIOD / gcd(pass, PROMOTION_PERIOD)
        } else {
            pass
        };
        Runner {
            p,
            reqs,
            batches,
            members,
            steps: 0,
            from: 0,
            cycle,
            swap: Swapper { db: 0 },
            acc: Counters::default(),
            measured: Duration::ZERO,
            m: Measured::default(),
        }
    }

    /// Steps in one pass of the request sequence.
    pub(crate) fn pass_len(&self) -> usize {
        if self.batches.is_empty() {
            self.p.inputs.seq.len()
        } else {
            self.batches.len()
        }
    }

    /// Time measured so far (snapshot generation excluded).
    pub(crate) fn measured(&self) -> Duration {
        self.measured
    }

    /// Requests served so far.
    pub(crate) fn requests(&self) -> usize {
        self.m.samples.len()
    }

    fn check(&mut self, db: usize, text: usize, op: service::Op, resp: &service::Response) {
        self.m.attempted += 1;
        let expected = self.p.refs.expect(&self.p.inputs, db, text, op_index(op));
        match check::of_response(resp) {
            Ok(a) if a == expected => {}
            Ok(a) => self.m.fail(format!(
                "text {text} {op:?}: got {a:?}, expected {expected:?}"
            )),
            Err(e) => self.m.fail(format!("text {text} {op:?}: {e}")),
        }
    }

    /// Serve the next request (or batch) and check its answers. Counter
    /// deltas are taken around the step alone, so work done between steps
    /// (a replay, an `explain`) does not count.
    pub(crate) fn step(&mut self) {
        let p = self.p;
        if !self.batches.is_empty() {
            // The new snapshot is generated outside the measured time.
            self.swap.before_batch(&p.inputs, self.steps, |db| {
                drop(p.svc.replace_snapshot(Arc::new(db)))
            });
        }
        let before = Counters::now(&p.svc);
        let t = Instant::now();
        if self.batches.is_empty() {
            let (text, op) = p.inputs.seq[self.steps % p.inputs.seq.len()];
            let resp = p.svc.execute(&self.reqs[text * 3 + op_index(op)]);
            let ns = t.elapsed().as_nanos() as u64;
            self.check(0, text, op, &resp);
            self.measured += t.elapsed();
            let delta = Counters::now(&p.svc).since(before);
            self.m.samples.push(Sample {
                ns,
                op: op_index(op),
                path: path_of(&delta),
                slot: self.steps % self.cycle,
            });
            self.acc = self.acc.plus(delta);
        } else {
            let i = self.steps % self.batches.len();
            let resps = p.svc.execute_batch(&self.batches[i]);
            let elapsed = t.elapsed();
            self.measured += elapsed;
            self.acc = self.acc.plus(Counters::now(&p.svc).since(before));
            let ns = elapsed.as_nanos() as u64;
            self.m.batches.push((ns, resps.len()));
            for (j, (&(text, op), resp)) in self.members[i].iter().zip(&resps).enumerate() {
                self.m.samples.push(Sample {
                    ns,
                    op: op_index(op),
                    path: 0,
                    slot: i * p.inputs.batch + j,
                });
                self.check(self.swap.db, text, op, resp);
            }
        }
        self.steps += 1;
        if self.steps - self.from == self.pass_len() {
            self.m.first_pass = Some(self.acc);
        }
    }

    /// Serve one whole pass unmeasured, answers still checked, so the
    /// allocator, caches and worker threads are warm; measuring starts
    /// after it.
    pub(crate) fn warm_up(&mut self) {
        for _ in 0..self.pass_len() {
            self.step();
        }
        self.from = self.steps;
        self.measured = Duration::ZERO;
        self.acc = Counters::default();
        self.m.samples.clear();
        self.m.batches.clear();
        self.m.first_pass = None;
    }

    /// The measured phase so far.
    pub(crate) fn finish(mut self) -> Measured {
        self.m.total = self.acc;
        self.m
    }
}

/// Drive the workload through the service until `limit`, after one
/// warm-up pass. With `setups`, a set-up of that spec is timed between
/// steps whenever set-ups have taken less than [`SETUP_SHARE`] of the
/// measured time, and its seconds are appended. After the warm-up and
/// after each such set-up the allocator's free memory is handed back and
/// the process's peak RSS is reset, so the peak covers serving, not what
/// set-ups and the reference answers left behind.
pub fn run(
    p: &Prepared,
    limit: Limit,
    mut setups: Option<(&RunSpec, &mut Vec<f64>)>,
) -> Result<Measured, String> {
    let mut r = Runner::new(p);
    r.warm_up();
    report::trim_heap();
    report::reset_peak_rss();
    let mut peak = 0f64;
    let mut setup_time = 0f64;
    while !limit.reached(r.measured(), r.requests()) {
        if let Some((spec, times)) = setups.as_mut() {
            if setup_time < SETUP_SHARE * r.measured().as_secs_f64() {
                peak = peak.max(report::peak_rss_mb());
                let t = Instant::now();
                let built = set_up(spec)?;
                times.push(t.elapsed().as_secs_f64());
                drop(built);
                setup_time += t.elapsed().as_secs_f64();
                report::trim_heap();
                report::reset_peak_rss();
            }
        }
        r.step();
    }
    let mut m = r.finish();
    m.peak_rss_mb = peak.max(report::peak_rss_mb());
    Ok(m)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Each request of the cycle with its fastest serve over the measured
/// phase, as `(op slot, nanoseconds)`; a batch member's serve takes its
/// batch's wall time. Every serve of a request does the same work, so
/// what sets the fastest apart is the shared host, whose speed drifts by
/// a quarter and more over minutes.
fn fastest_serves(m: &Measured) -> Vec<(usize, u64)> {
    let mut best: Vec<Option<(usize, u64)>> = Vec::new();
    for s in &m.samples {
        if best.len() <= s.slot {
            best.resize(s.slot + 1, None);
        }
        let b = &mut best[s.slot];
        if b.is_none_or(|(_, ns)| s.ns < ns) {
            *b = Some((s.op, s.ns));
        }
    }
    best.into_iter().flatten().collect()
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order;
/// timings are over each request's fastest serve ([`fastest_serves`]).
pub fn end_to_end(p: &Prepared, m: &Measured) -> Vec<Metric> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let best = fastest_serves(m);
    let mut all: Vec<u64> = best.iter().map(|b| b.1).collect();
    all.sort_unstable();
    // Batch members share their batch's time: count each batch once.
    let seconds = all.iter().sum::<u64>() as f64 / 1e9 / p.inputs.batch as f64;
    let op_p50 = |slot: usize| {
        let mut v: Vec<u64> = best.iter().filter(|b| b.0 == slot).map(|b| b.1).collect();
        v.sort_unstable();
        ms(report::quantile(&v, 0.5))
    };
    let mut setups = p.setup_s.clone();
    setups.sort_by(f64::total_cmp);
    let mid = setups.len() / 2;
    let setup_median = if setups.len().is_multiple_of(2) {
        (setups[mid - 1] + setups[mid]) / 2.0
    } else {
        setups[mid]
    };
    vec![
        metric("setup_s", "s", setup_median),
        metric(
            "throughput_rps",
            "1/s",
            all.len() as f64 / seconds.max(1e-9),
        ),
        metric("latency_p50_ms", "ms", ms(report::quantile(&all, 0.5))),
        metric("latency_p99_ms", "ms", ms(report::quantile(&all, 0.99))),
        metric(
            "boolean_p50_ms",
            "ms",
            op_p50(op_index(service::Op::Boolean)),
        ),
        metric("count_p50_ms", "ms", op_p50(op_index(service::Op::Count))),
        metric(
            "enumerate_p50_ms",
            "ms",
            op_p50(op_index(service::Op::Enumerate)),
        ),
        metric("peak_rss_mb", "MiB", m.peak_rss_mb),
    ]
}

/// Print the counters line of a run.
pub fn print_counters(workload: Workload, m: &Measured) {
    let line = |label: &str, c: &Counters| {
        println!(
            "counters {} {label}: plan_hits={} plan_misses={} plan_evictions={} decomp_hits={} decomp_misses={} index_builds={}",
            workload.name(),
            c.plan_hits,
            c.plan_misses,
            c.plan_evictions,
            c.decomp_hits,
            c.decomp_misses,
            c.index_builds
        )
    };
    if let Some(c) = &m.first_pass {
        line("first-pass", c);
    }
    line("whole-phase", &m.total);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(slot: usize, op: usize, ns: u64) -> Sample {
        Sample {
            ns,
            op,
            path: 0,
            slot,
        }
    }

    #[test]
    fn timings_take_each_requests_fastest_serve() {
        let m = Measured {
            samples: vec![
                sample(0, 0, 9),
                sample(1, 1, 5),
                sample(0, 0, 4),
                sample(1, 1, 7),
                sample(2, 2, 3),
            ],
            ..Measured::default()
        };
        assert_eq!(fastest_serves(&m), vec![(0, 4), (1, 5), (2, 3)]);
    }
}
