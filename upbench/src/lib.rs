//! The workspace benchmark's library half: metric definitions, the engine
//! probe, the span recorder and the four workloads. `src/main.rs` is the
//! command; `tests/benchmark.rs` checks both against `BENCHMARK.json`.

#![forbid(unsafe_code)]

pub mod batch;
pub mod clock;
pub mod common;
pub mod failover;
pub mod live;
pub mod metrics;
pub mod probe;
pub mod serve_wall;
pub mod trace;

use common::Run;
use metrics::Record;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["batch-skewed", "serve-wall", "live-tenants", "failover"];

/// Runs workload `name` (one of [`WORKLOADS`]) into `rec`.
///
/// # Panics
/// Panics on a name outside [`WORKLOADS`].
pub fn run_workload(name: &str, run: &Run, rec: &mut Record) {
    match name {
        "batch-skewed" => batch::run(run, rec),
        "serve-wall" => serve_wall::run(run, rec),
        "live-tenants" => live::run(run, rec),
        "failover" => failover::run(run, rec),
        other => panic!("unknown workload {other}"),
    }
}
