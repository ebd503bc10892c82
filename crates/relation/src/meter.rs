//! Cooperative cost metering for the relational kernels.
//!
//! The resource-governance layer (`hypertree_core::budget::QueryBudget`)
//! lives *above* this crate in the dependency order, so the kernels
//! cannot see it directly. Instead every kernel has one body that meters
//! through this minimal trait: the `eval` crate (which sees both) adapts
//! a `QueryBudget` into a [`CostMeter`], and callers without a budget
//! pass [`NoMeter`] (the plain-signature kernels such as `ops::join` and
//! [`crate::Relation::dedup`] are one-line delegations doing exactly
//! that).
//!
//! Contract for the metered kernels (`ops::join_metered`,
//! `ops::project_metered`, [`crate::Relation::retain_semijoin_cols_metered`],
//! [`crate::Relation::dedup_metered`]):
//!
//! * **Chunk granularity** — [`CostMeter::tick`] is polled at least
//!   once per kernel call, and once per [`METER_CHUNK`] rows in the join
//!   kernel, whose output can outgrow its inputs; the single-pass
//!   kernels (projection, dedup, semijoin) poll once for their whole,
//!   input-linear pass.
//! * **Byte accounting** — [`CostMeter::charge_bytes`] is called for
//!   intermediate allocations at their sizing points (the join kernel's
//!   output reserve, a projection's copy, dedup's rebuilt row store).
//!   Charges are cumulative: the meter sees what the run allocated in
//!   total, not what is live.
//! * **Abort safety** — a kernel that returns [`Trip`] leaves its inputs
//!   exactly as they were: in-place operators poll and probe *before*
//!   the first mutation, and fresh outputs under construction are simply
//!   dropped. A budget-tripped run is observationally side-effect-free
//!   on the database.

/// Rows per meter poll: small enough to bound trip latency, large enough
/// that a poll (two atomic loads and, under a deadline, one clock read)
/// vanishes against the per-row work.
pub const METER_CHUNK: usize = 4096;

/// Why a metered kernel stopped early. The `eval` crate maps this (plus
/// phase context) onto `hypertree_core::budget::QueryError`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trip {
    /// The deadline passed.
    Deadline,
    /// The byte quota was exceeded; the running total that tripped it.
    Memory {
        /// Total bytes charged when the quota tripped.
        bytes: u64,
    },
    /// The budget was cancelled.
    Cancelled,
}

/// The metering hook the kernels poll. Implementations must be cheap —
/// both methods sit on (chunked) hot paths.
pub trait CostMeter {
    /// Poll for deadline/cancellation after processing `units` more rows
    /// (advisory; called at chunk granularity).
    fn tick(&self, units: u64) -> Result<(), Trip>;

    /// Account `bytes` of intermediate allocation; trip once a quota is
    /// exceeded.
    fn charge_bytes(&self, bytes: u64) -> Result<(), Trip>;
}

/// The no-op meter: never trips, never counts. Kernel calls without a
/// budget pass this.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoMeter;

impl CostMeter for NoMeter {
    #[inline]
    fn tick(&self, _units: u64) -> Result<(), Trip> {
        Ok(())
    }

    #[inline]
    fn charge_bytes(&self, _bytes: u64) -> Result<(), Trip> {
        Ok(())
    }
}

/// The result of a kernel run under [`NoMeter`]. Its `tick` and
/// `charge_bytes` always return `Ok`, so such a run cannot trip.
pub(crate) fn unmetered<T>(run: Result<T, Trip>) -> T {
    match run {
        Ok(v) => v,
        // archlint::allow(panic-free-request-path, reason = "only called on runs under NoMeter, whose tick and charge_bytes never return Err")
        Err(t) => unreachable!("NoMeter never trips, got {t:?}"),
    }
}

#[cfg(test)]
pub(crate) mod testing {
    //! Deterministic meters for kernel tests.

    use super::{CostMeter, Trip};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Trips with the given [`Trip`] after a fixed number of ticks;
    /// counts every call so tests can assert no work continues after the
    /// trip surfaced.
    pub struct TripAfter {
        pub ticks_before_trip: u64,
        pub trip: Trip,
        pub ticks: AtomicU64,
        pub charges: AtomicU64,
    }

    impl TripAfter {
        pub fn new(ticks_before_trip: u64, trip: Trip) -> Self {
            TripAfter {
                ticks_before_trip,
                trip,
                ticks: AtomicU64::new(0),
                charges: AtomicU64::new(0),
            }
        }
    }

    impl CostMeter for TripAfter {
        fn tick(&self, _units: u64) -> Result<(), Trip> {
            if self.ticks.fetch_add(1, Ordering::Relaxed) >= self.ticks_before_trip {
                return Err(self.trip);
            }
            Ok(())
        }

        fn charge_bytes(&self, bytes: u64) -> Result<(), Trip> {
            self.charges.fetch_add(bytes, Ordering::Relaxed);
            Ok(())
        }
    }

    /// Grants a fixed byte quota, then trips [`Trip::Memory`].
    pub struct ByteQuota {
        pub quota: u64,
        pub charged: AtomicU64,
    }

    impl ByteQuota {
        pub fn new(quota: u64) -> Self {
            ByteQuota {
                quota,
                charged: AtomicU64::new(0),
            }
        }
    }

    impl CostMeter for ByteQuota {
        fn tick(&self, _units: u64) -> Result<(), Trip> {
            Ok(())
        }

        fn charge_bytes(&self, bytes: u64) -> Result<(), Trip> {
            let total = self.charged.fetch_add(bytes, Ordering::Relaxed) + bytes;
            if total > self.quota {
                return Err(Trip::Memory { bytes: total });
            }
            Ok(())
        }
    }
}
