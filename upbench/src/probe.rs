//! The transparent engine wrapper: every engine call a workload makes goes
//! through a [`Probe`], which times it from outside and sums what the
//! response already reports. It is the only source of the `engine.*` and
//! `pim.*` numbers inside replay and pipeline runs, and of
//! `serve.host_self_s` (replay host time minus the engine's share).

use std::sync::{Arc, Mutex};

use annkit::mutation::SnapshotTimeline;
use baselines::engine::{AnnEngine, SearchRequest, SearchResponse};
use baselines::workload_stats::WorkloadStats;
use pim_sim::energy::EnergyModel;
use pim_sim::stats::StageBreakdown;
use upanns::engine::UpAnnsEngine;
use upanns::replica::ReplicatedMultiHost;

use crate::clock::Stopwatch;
use crate::trace::Tracer;

/// Load-balance ratios an engine reports about its last batch.
pub trait Balance {
    /// `(DPU busy max/avg, scheduled workload max/avg)` of the most recent
    /// batch; `None` where the engine has no such figure.
    fn balance(&self) -> (Option<f64>, Option<f64>);
}

impl Balance for UpAnnsEngine {
    fn balance(&self) -> (Option<f64>, Option<f64>) {
        (
            Some(self.last_balance_ratio()),
            Some(self.last_schedule_ratio()),
        )
    }
}

impl Balance for ReplicatedMultiHost {
    fn balance(&self) -> (Option<f64>, Option<f64>) {
        (Some(self.last_balance_ratio()), None)
    }
}

/// Sums over every `execute` call a probe (or a set of probes sharing one
/// tally) saw.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Calls to `execute`.
    pub calls: u64,
    /// Queries in those calls.
    pub queries: u64,
    /// Host seconds spent inside `execute`.
    pub host_s: f64,
    /// Modeled seconds the responses reported.
    pub modeled_s: f64,
    /// Calls whose host time exceeded their modeled seconds.
    pub overruns: u64,
    /// Host seconds of each call, in call order.
    pub call_host_s: Vec<f64>,
    /// Summed modeled stage breakdown.
    pub breakdown: StageBreakdown,
    /// Summed work counters.
    pub stats: WorkloadStats,
    dpu_ratio_sum: f64,
    dpu_ratio_calls: u64,
    schedule_ratio_sum: f64,
    schedule_ratio_calls: u64,
}

impl Tally {
    /// Mean DPU busy max/avg over the calls that reported one (0 if none).
    pub fn dpu_max_avg(&self) -> f64 {
        mean(self.dpu_ratio_sum, self.dpu_ratio_calls)
    }

    /// Mean scheduled-workload max/avg over the calls that reported one.
    pub fn schedule_max_avg(&self) -> f64 {
        mean(self.schedule_ratio_sum, self.schedule_ratio_calls)
    }
}

fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// A tally shared between the probes of one run (one per pipeline worker).
pub type SharedTally = Arc<Mutex<Tally>>;

/// Empties a shared tally, returning what it held.
pub fn take(tally: &SharedTally) -> Tally {
    std::mem::take(
        &mut *tally
            .lock()
            .expect("a worker panicked while updating the tally"),
    )
}

/// An [`AnnEngine`] that forwards every call to the engine it borrows and
/// records each `execute` into a shared [`Tally`] (and, when tracing, one
/// span carrying the request id and batch size).
pub struct Probe<'a, E> {
    inner: &'a mut E,
    tally: SharedTally,
    tracer: Option<Tracer>,
}

impl<'a, E: AnnEngine + Balance> Probe<'a, E> {
    /// Wraps `inner`, adding its calls to `tally`.
    pub fn new(inner: &'a mut E, tally: SharedTally, tracer: Option<Tracer>) -> Self {
        Self {
            inner,
            tally,
            tracer,
        }
    }
}

impl<E: AnnEngine + Balance> AnnEngine for Probe<'_, E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&mut self, request: &SearchRequest) -> SearchResponse {
        let span = self
            .tracer
            .as_ref()
            .filter(|t| t.recording())
            .map(|t| (t.open("execute", t.parent()), t));
        let clock = Stopwatch::start();
        let response = self.inner.execute(request);
        let host_s = clock.elapsed_s();
        if let Some((span, tracer)) = span {
            tracer.close(
                span,
                vec![
                    ("request_id", request.id.to_string()),
                    ("batch_size", request.len().to_string()),
                    ("modeled_s", format!("{:e}", response.seconds)),
                ],
            );
        }
        let (dpu, schedule) = self.inner.balance();
        let mut t = self
            .tally
            .lock()
            .expect("a worker panicked while updating the tally");
        t.calls += 1;
        t.queries += request.len() as u64;
        t.host_s += host_s;
        t.call_host_s.push(host_s);
        t.modeled_s += response.seconds;
        if host_s > response.seconds {
            t.overruns += 1;
        }
        t.breakdown.merge(&response.breakdown);
        t.stats.merge(&response.stats);
        if let Some(r) = dpu {
            t.dpu_ratio_sum += r;
            t.dpu_ratio_calls += 1;
        }
        if let Some(r) = schedule {
            t.schedule_ratio_sum += r;
            t.schedule_ratio_calls += 1;
        }
        response
    }

    fn energy_model(&self) -> EnergyModel {
        self.inner.energy_model()
    }

    fn install_timeline(&mut self, timeline: SnapshotTimeline) -> bool {
        self.inner.install_timeline(timeline)
    }

    fn scale_to(&mut self, hosts: usize, now: f64) -> Option<f64> {
        self.inner.scale_to(hosts, now)
    }

    fn live_hosts(&self) -> Option<usize> {
        self.inner.live_hosts()
    }
}
