//! Both modes at the tiny size: every answer checks, the traced replay
//! reports every per-layer metric, and a wrong answer is caught.

use servebench::drive::{self, Limit};
use servebench::{replay, RunSpec, Scale, Workload};
use std::sync::Arc;

fn spec(workload: Workload) -> RunSpec {
    RunSpec {
        workload,
        seed: 3,
        scale: Scale::Tiny,
    }
}

#[test]
fn untraced_runs_answer_correctly_and_report_every_end_to_end_metric() {
    for w in Workload::ALL {
        let p = drive::setup(&spec(w)).expect("set-up succeeds");
        let spec = spec(w);
        let mut setups = Vec::new();
        let m = drive::run(
            &p,
            Limit::Requests(2 * p.inputs.seq.len()),
            Some((&spec, &mut setups)),
        )
        .expect("the run succeeds");
        assert_eq!(m.failed, 0, "{}: {:?}", w.name(), m.failures);
        assert!(
            !setups.is_empty(),
            "{}: no set-up timed in the run",
            w.name()
        );
        let metrics = drive::end_to_end(&p, &m);
        assert_eq!(metrics.len(), 8);
        for x in &metrics {
            assert!(
                x.value.is_finite() && x.value > 0.0,
                "{} {}",
                w.name(),
                x.name
            );
        }
    }
}

#[test]
fn traced_replays_check_their_plans_and_answers() {
    for w in Workload::ALL {
        let p = drive::setup(&spec(w)).expect("set-up succeeds");
        let (m, r) = replay::interleaved(&p, Limit::Requests(p.inputs.seq.len()));
        assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.failures);
        assert!(r.attempted >= p.inputs.seq.len());
        let spans = &r.recorder().spans;
        for name in [
            "cq.parse",
            "service.plan_key",
            "eval.reduce",
            "eval.bind",
            "core.complete",
        ] {
            assert!(
                spans.iter().any(|s| s.name == name),
                "{}: no {name} span",
                w.name()
            );
        }
        let metrics = replay::per_layer(&p, &m, &r);
        assert_eq!(metrics.len(), 27);
        assert!(metrics.iter().all(|x| x.value.is_finite()), "{}", w.name());
    }
}

#[test]
fn a_wrong_answer_is_counted() {
    let p = drive::setup(&spec(Workload::HotData)).expect("set-up succeeds");
    // Serve from an empty snapshot: every planted query turns false.
    drop(p.svc.replace_snapshot(Arc::new(relation::Database::new())));
    let m = drive::run(&p, Limit::Requests(p.inputs.seq.len()), None).expect("the run succeeds");
    assert!(m.failed > 0);
    assert_eq!(m.failed, m.attempted);
}
