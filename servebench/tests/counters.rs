//! The deterministic counters: each single-client workload, run twice at
//! the tiny size with one seed, repeats its service-cache deltas and
//! index-build count exactly.
//!
//! One test in its own binary: `relation::stats::index_builds_total` is
//! process-wide, so no other test may build indexes beside it.

use servebench::drive::{self, Limit};
use servebench::{RunSpec, Scale, Workload};

#[test]
fn single_client_workloads_repeat_their_counters() {
    for workload in [Workload::HotData, Workload::HotWide, Workload::ColdShapes] {
        let spec = RunSpec {
            workload,
            seed: 7,
            scale: Scale::Tiny,
        };
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let p = drive::setup(&spec).expect("set-up succeeds");
                let m = drive::run(&p, Limit::Requests(2 * p.inputs.seq.len()), None)
                    .expect("the run succeeds");
                assert_eq!(m.failed, 0, "{}: {:?}", workload.name(), m.failures);
                (m.first_pass.expect("a whole pass ran"), m.total)
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{} counters differ", workload.name());
        let (pass, _) = runs[0];
        assert!(pass.plan_hits + pass.plan_misses > 0, "{}", workload.name());
    }
}
