//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]`
//!
//! `--trace 0`: the untraced run; prints every end-to-end metric.
//! `--trace 1`: the traced run; alternates passes of the untraced service
//! (for per-class latency and the service counters) with passes of the
//! layer-by-layer replay; prints every per-layer metric and writes the
//! spans to `servebench/out/spans-<workload>-<seed>.jsonl` (or `--spans`).
//!
//! The last line of stdout is the JSON result. The exit code is 1 when any
//! answer is wrong or any request fails, 2 on bad arguments.

use servebench::drive::{self, Limit};
use servebench::{replay, report, RunSpec, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    spec: RunSpec,
    seconds: Duration,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("bad seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = Duration::try_from_secs_f64(seconds).map_err(|e| format!("bad seconds: {e}"))?;
    Ok(Args {
        spec: RunSpec {
            workload,
            seed,
            scale: Scale::Full,
        },
        seconds,
        trace,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run once; `Ok(false)` when some answer was wrong or a request failed.
fn run(args: &Args) -> Result<bool, String> {
    let spec = &args.spec;
    let name = spec.workload.name();
    let mut p = drive::setup(spec)?;
    println!(
        "setup {name}: seed {} texts {} bases {} pass {} requests; naive cross-checks {} run, {} over budget",
        spec.seed,
        p.inputs.texts.len(),
        p.inputs.bases.len(),
        p.inputs.seq.len(),
        p.refs.naive_checked,
        p.refs.naive_skipped,
    );
    let limit = Limit::Time(args.seconds);
    if !args.trace {
        let mut more = Vec::new();
        let m = drive::run(&p, limit, Some((spec, &mut more)))?;
        p.setup_s.extend(more);
        let mut sorted = p.setup_s.clone();
        sorted.sort_by(f64::total_cmp);
        println!(
            "setup_s {name}: {} set-ups, fastest {:.6} s, slowest {:.6} s",
            sorted.len(),
            sorted[0],
            sorted[sorted.len() - 1]
        );
        drive::print_counters(spec.workload, &m);
        for f in &m.failures {
            println!("failure {f}");
        }
        let attempted = m.attempted;
        println!(
            "error_rate {name}: {} of {attempted} = {:.6}",
            m.failed,
            drive::ratio(m.failed as u64, attempted as u64)
        );
        report::print_result(
            &drive::end_to_end(&p, &m),
            m.failed == 0,
            attempted,
            m.failed,
        );
        return Ok(m.failed == 0);
    }
    let (m, r) = replay::interleaved(&p, limit);
    drive::print_counters(spec.workload, &m);
    let path = args.spans.clone().unwrap_or_else(|| {
        PathBuf::from(format!("servebench/out/spans-{name}-{}.jsonl", spec.seed))
    });
    r.recorder()
        .write(&path)
        .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    println!(
        "spans {name}: {} written to {}",
        r.recorder().spans.len(),
        path.display()
    );
    let metrics = replay::per_layer(&p, &m, &r);
    let failed = m.failed + r.failed;
    for f in m.failures.iter().chain(&r.failures) {
        println!("failure {f}");
    }
    let attempted = m.attempted + r.attempted;
    report::print_result(&metrics, failed == 0, attempted, failed);
    Ok(failed == 0)
}
