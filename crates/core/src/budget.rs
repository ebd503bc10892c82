//! Cooperative resource governance for query execution.
//!
//! The paper's tractability results are *asymptotic*: a width-`k` plan is
//! polynomial, but a polynomial over a large database can still blow a
//! latency SLO or exhaust memory, and the heuristic tier deliberately runs
//! plans whose width is only an upper bound. Since deciding generalized
//! hypertree width is NP-hard in general (Fischl–Gottlob–Pichler 2016),
//! expensive queries cannot all be rejected statically — the runtime
//! itself must enforce limits.
//!
//! [`QueryBudget`] is that limit: a deadline, a candidate-step quota, a
//! byte quota for intermediate results, and a cancellation flag, shared by
//! `Arc` across every thread working on one request. Long-running loops
//! poll it cooperatively — at *chunk* granularity (thousands of rows per
//! [`QueryBudget::check`]), so the unlimited/hot path pays a few atomic
//! loads per chunk and no clock reads at all. On a trip the loop unwinds
//! with a typed [`QueryError`]; nothing is killed mid-mutation (kernels
//! poll *before* in-place phases begin, see `relation`'s metered kernels).
//!
//! The budget is a *gauge*, not a synchronisation point: all counters use
//! relaxed atomics, and a trip observed by one thread is observed by the
//! rest at their next poll.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// [`QueryBudget::check`] reads the clock on every `CLOCK_POLL_PERIOD`-th
/// poll rather than on every call: with kernels polling at chunk
/// granularity (`relation::meter::METER_CHUNK` rows) a clock read per
/// poll is the dominant governance cost on microsecond-scale queries
/// (~40 ns per `Instant::now` on commodity Linux). The period bounds how
/// late a deadline can be observed to `CLOCK_POLL_PERIOD - 1` chunks of
/// work; the *first* poll always reads the clock, so an already-elapsed
/// deadline trips immediately, and a trip latches so every later poll
/// fails without touching the clock again.
const CLOCK_POLL_PERIOD: u32 = 16;

/// Why a governed run stopped early. The taxonomy every layer above
/// `core` maps into: kernels and pipelines return it directly, the
/// serving layer wraps it per request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The deadline passed while executing the named phase
    /// (`"plan"`, `"reduce"`, `"semijoin"`, `"join"`, `"count"`, …).
    DeadlineExceeded {
        /// The phase that observed the trip (coarse, for diagnostics).
        phase: &'static str,
    },
    /// The intermediate-result byte quota was exceeded.
    MemoryBudgetExceeded {
        /// Bytes charged when the quota tripped (≥ the quota).
        bytes: u64,
    },
    /// The budget was cancelled via [`QueryBudget::cancel`].
    Cancelled,
    /// Planning ran out of budget before *any* witness (exact or
    /// heuristic) existed — there is no plan to degrade to.
    PlanningExhausted,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::DeadlineExceeded { phase } => {
                write!(f, "deadline exceeded during {phase}")
            }
            QueryError::MemoryBudgetExceeded { bytes } => {
                write!(f, "memory budget exceeded ({bytes} bytes charged)")
            }
            QueryError::Cancelled => write!(f, "query cancelled"),
            QueryError::PlanningExhausted => {
                write!(f, "planning budget exhausted before any plan existed")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A cooperative budget for one query (or one request): deadline, step
/// quota, byte quota, cancellation. Shareable across threads (`Arc` it
/// for scoped workers); all methods take `&self`.
///
/// * **Deadline** — wall-clock. Checked by [`check`](Self::check) /
///   [`charge`](Self::charge), which read the clock only when a deadline
///   is actually set.
/// * **Steps** — an abstract work unit (the solver charges λ-candidates,
///   pipelines charge node steps). Trips as [`QueryError::DeadlineExceeded`]
///   would be wrong here; step exhaustion surfaces as
///   [`QueryError::PlanningExhausted`] in planning and is converted by the
///   caller otherwise.
/// * **Bytes** — intermediate-result allocation, charged by the join
///   kernels at their exact-size `reserve` points.
/// * **Cancellation** — a one-way flag; every subsequent check fails with
///   [`QueryError::Cancelled`].
#[derive(Debug)]
pub struct QueryBudget {
    deadline: Option<Instant>,
    max_steps: u64,
    max_bytes: u64,
    steps: AtomicU64,
    bytes: AtomicU64,
    cancelled: AtomicBool,
    /// Poll counter for [`check`](Self::check)'s rate-limited clock reads.
    polls: AtomicU32,
    /// Latched once a clock read observes the deadline passed.
    expired: AtomicBool,
}

impl Default for QueryBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl QueryBudget {
    /// No limits at all; every check passes (cancellation still works).
    pub fn unlimited() -> Self {
        QueryBudget {
            deadline: None,
            max_steps: u64::MAX,
            max_bytes: u64::MAX,
            steps: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
            polls: AtomicU32::new(0),
            expired: AtomicBool::new(false),
        }
    }

    /// Builder: trip once `d` has elapsed from now.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(Instant::now() + d);
        self
    }

    /// Builder: trip at the absolute instant `at`.
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Builder: cap charged intermediate bytes.
    pub fn with_byte_quota(mut self, max_bytes: u64) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Builder: cap charged abstract steps.
    pub fn with_step_quota(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// The absolute deadline, if any (planners use this to hand the exact
    /// search its *share* of the remaining time).
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left before the deadline (`None` when no deadline is set;
    /// `Some(ZERO)` once it has passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// `true` when a byte quota is set, i.e. when
    /// [`charge_bytes`](Self::charge_bytes) can trip.
    pub fn has_byte_quota(&self) -> bool {
        self.max_bytes != u64::MAX
    }

    /// `true` when no deadline, quota, or cancellation can ever trip —
    /// governed code may skip its polling entirely.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_steps == u64::MAX
            && self.max_bytes == u64::MAX
            && !self.cancelled.load(Ordering::Relaxed)
    }

    /// Cancel cooperatively: every subsequent check or charge fails with
    /// [`QueryError::Cancelled`]. One-way.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` once [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Bytes charged so far.
    pub fn bytes_charged(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Steps charged so far.
    pub fn steps_charged(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Poll cancellation and the deadline. Call at chunk granularity.
    ///
    /// When a deadline is set, the clock is read on the first poll and
    /// then once per `CLOCK_POLL_PERIOD` (16) polls (a clock read per poll
    /// would dominate governance cost on microsecond-scale queries); in
    /// between, only relaxed atomics are touched. An observed trip
    /// latches, so once this returns `DeadlineExceeded` every later poll
    /// does too.
    #[inline]
    pub fn check(&self, phase: &'static str) -> Result<(), QueryError> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(QueryError::Cancelled);
        }
        if let Some(d) = self.deadline {
            if self.expired.load(Ordering::Relaxed) {
                return Err(QueryError::DeadlineExceeded { phase });
            }
            let poll = self.polls.fetch_add(1, Ordering::Relaxed);
            if poll.is_multiple_of(CLOCK_POLL_PERIOD) && Instant::now() >= d {
                self.expired.store(true, Ordering::Relaxed);
                return Err(QueryError::DeadlineExceeded { phase });
            }
        }
        Ok(())
    }

    /// Charge `bytes` of intermediate allocation; trips once the running
    /// total exceeds the quota. The charge is recorded even when it trips
    /// (the total is a gauge of what *would* have been allocated).
    #[inline]
    pub fn charge_bytes(&self, bytes: u64) -> Result<(), QueryError> {
        if self.max_bytes == u64::MAX && bytes == 0 {
            return Ok(());
        }
        let total = self
            .bytes
            .fetch_add(bytes, Ordering::Relaxed)
            .saturating_add(bytes);
        if total > self.max_bytes {
            return Err(QueryError::MemoryBudgetExceeded { bytes: total });
        }
        Ok(())
    }

    /// Charge `n` abstract steps; `Err(PlanningExhausted)` once the quota
    /// is spent (callers outside planning convert as appropriate).
    #[inline]
    pub fn charge_steps(&self, n: u64) -> Result<(), QueryError> {
        if self.max_steps == u64::MAX {
            return Ok(());
        }
        let total = self.steps.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        if total > self.max_steps {
            return Err(QueryError::PlanningExhausted);
        }
        Ok(())
    }

    /// [`check`](Self::check) plus a byte charge in one call — the shape
    /// the join kernels want at their reserve points.
    #[inline]
    pub fn charge(&self, bytes: u64, phase: &'static str) -> Result<(), QueryError> {
        self.check(phase)?;
        self.charge_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = QueryBudget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(b.check("x"), Ok(()));
        assert_eq!(b.charge_bytes(u64::MAX / 2), Ok(()));
        assert_eq!(b.charge_steps(1 << 40), Ok(()));
    }

    #[test]
    fn cancellation_is_one_way_and_observed() {
        let b = QueryBudget::unlimited();
        assert_eq!(b.check("x"), Ok(()));
        b.cancel();
        assert!(b.is_cancelled());
        assert_eq!(b.check("x"), Err(QueryError::Cancelled));
        assert_eq!(b.charge(0, "x"), Err(QueryError::Cancelled));
    }

    #[test]
    fn elapsed_deadline_trips_with_the_phase() {
        let b = QueryBudget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(
            b.check("join"),
            Err(QueryError::DeadlineExceeded { phase: "join" })
        );
        assert_eq!(b.remaining(), Some(Duration::ZERO));
        let far = QueryBudget::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(far.check("join"), Ok(()));
        assert!(far.remaining().unwrap() > Duration::from_secs(3500));
    }

    #[test]
    fn a_deadline_trip_latches_across_rate_limited_polls() {
        let b = QueryBudget::unlimited().with_deadline(Duration::from_millis(5));
        // Spin until the deadline is observed (the rate limiter reads the
        // clock every CLOCK_POLL_PERIOD-th poll, so this takes at most
        // that many extra polls past the deadline)…
        while b.check("spin").is_ok() {
            std::hint::spin_loop();
        }
        // …after which every poll trips without waiting for the next
        // clock-read slot.
        for _ in 0..(2 * CLOCK_POLL_PERIOD) {
            assert_eq!(
                b.check("after"),
                Err(QueryError::DeadlineExceeded { phase: "after" })
            );
        }
    }

    #[test]
    fn byte_quota_trips_past_the_cap_and_reports_the_total() {
        let b = QueryBudget::unlimited().with_byte_quota(100);
        assert_eq!(b.charge_bytes(60), Ok(()));
        assert_eq!(b.charge_bytes(40), Ok(())); // exactly at the cap: fine
        assert_eq!(
            b.charge_bytes(1),
            Err(QueryError::MemoryBudgetExceeded { bytes: 101 })
        );
        assert_eq!(b.bytes_charged(), 101);
    }

    #[test]
    fn step_quota_trips_as_planning_exhausted() {
        let b = QueryBudget::unlimited().with_step_quota(2);
        assert_eq!(b.charge_steps(2), Ok(()));
        assert_eq!(b.charge_steps(1), Err(QueryError::PlanningExhausted));
    }

    #[test]
    fn errors_render() {
        for e in [
            QueryError::DeadlineExceeded { phase: "join" },
            QueryError::MemoryBudgetExceeded { bytes: 7 },
            QueryError::Cancelled,
            QueryError::PlanningExhausted,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
