//! `upbench` — the workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path upbench/Cargo.toml -- \
//!     --workload batch-skewed|serve-wall|live-tenants|failover \
//!     --seed N --seconds S --trace 0|1 [--quick] [--trace-out PATH]
//! ```
//!
//! One run builds one workload's inputs from `--seed`, sets up (several
//! times; the median is `setup_s`), measures for `--seconds`, checks the
//! answers, and prints one JSON line last: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run also
//! writes its spans as Chrome trace-event JSON. A failed check prints the
//! result with `"correct": false` and exits with code 1. See `README.md`
//! for the metric definitions.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use upbench::common::Run;
use upbench::metrics::{self, Record, END_TO_END, PER_LAYER};
use upbench::trace::Tracer;
use upbench::{clock, WORKLOADS};

struct Args {
    workload: String,
    run: Run,
    trace_out: Option<PathBuf>,
}

fn usage(why: &str) -> ExitCode {
    eprintln!("upbench: {why}");
    eprintln!(
        "usage: upbench --workload {} --seed N --seconds S --trace 0|1 [--quick] [--trace-out PATH]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed {value}: not an integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds {value}: not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        run: Run {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            quick,
            tracer: trace.ok_or("--trace is required")?.then(Tracer::new),
        },
        trace_out,
    })
}

/// Where a traced run writes its spans when `--trace-out` is not given:
/// beside the build output, which the repository ignores.
fn default_trace_path(workload: &str, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("upbench/target"));
    target
        .join("upbench-traces")
        .join(format!("{workload}-seed{seed}.json"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => return usage(&why),
    };
    let run = &args.run;
    let mut rec = Record::default();
    eprintln!(
        "upbench: workload {} seed {} for {} s{}",
        args.workload,
        run.seed,
        run.seconds,
        if run.tracer.is_some() { ", traced" } else { "" }
    );
    upbench::run_workload(&args.workload, run, &mut rec);
    rec.set("peak_rss_mb", clock::peak_rss_mb());
    rec.set(
        "run.failed_fraction",
        metrics::ratio(rec.failed as f64, rec.attempted as f64),
    );

    if let Some(tracer) = &run.tracer {
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| default_trace_path(&args.workload, run.seed));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_chrome_json()));
        match written {
            Ok(()) => eprintln!(
                "upbench: wrote {} spans to {}",
                tracer.span_count(),
                path.display()
            ),
            Err(err) => rec.check(false, || {
                format!("writing the trace to {}: {err}", path.display())
            }),
        }
    }

    let line = if run.tracer.is_some() {
        rec.result_json(PER_LAYER, true)
    } else {
        rec.result_json(END_TO_END, false)
    };
    for failure in rec.failures() {
        eprintln!("upbench: check failed: {failure}");
    }
    println!("{line}");
    if rec.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
