//! The serving benchmark: seeded workloads driven through
//! [`service::Service`] (the untraced run), and a traced replay of the
//! same request sequence through each layer's public functions.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to run both modes.

pub mod check;
pub mod drive;
pub mod gen;
pub mod replay;
pub mod report;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Data-heavy, plan-cached working set.
    HotData,
    /// Plan-cached serving of very large plans over tiny data.
    HotWide,
    /// Shape churn over tiny data, more shapes than either cache holds.
    ColdShapes,
    /// Mixed-op batches beside snapshot swaps, on two workers.
    BatchChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::HotData,
        Workload::HotWide,
        Workload::ColdShapes,
        Workload::BatchChurn,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotData => "hot-data",
            Workload::HotWide => "hot-wide",
            Workload::ColdShapes => "cold-shapes",
            Workload::BatchChurn => "batch-churn",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what the benchmark measures; `Tiny` is for the
/// crate's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes (see `README.md`).
    Full,
    /// A few requests over a few rows, for tests.
    Tiny,
}

/// What one run generates and how it sets up.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
}
