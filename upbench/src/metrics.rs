//! Metric definitions and the one-line JSON result.
//!
//! [`END_TO_END`] and [`PER_LAYER`] list every metric the benchmark prints,
//! in print order, and must match `BENCHMARK.json` name for name and unit
//! for unit (the benchmark's own test checks this). Each per-layer metric
//! names the end-to-end metrics it should move.

use std::collections::BTreeMap;

use crate::trace::json_string;

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metrics a change in this metric should move (empty for
    /// end-to-end metrics themselves).
    pub moves: &'static [&'static str],
}

const fn d(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [&'static str],
) -> Def {
    Def {
        name,
        unit,
        better,
        moves,
    }
}

const H: &str = "higher";
const L: &str = "lower";

/// Printed by every untraced run, on every workload. Latency percentiles
/// are per query on the workload's own clock (see the README).
pub const END_TO_END: &[Def] = &[
    d("setup_s", "s", L, &[]),
    d("modeled_qps", "1/s", H, &[]),
    d("recall_at_k", "ratio", H, &[]),
    d("p50_ms", "ms", L, &[]),
    d("p99_ms", "ms", L, &[]),
    d("peak_rss_mb", "MiB", L, &[]),
];

// What each per-layer metric should move. Host-side costs name `p99_ms`:
// on serve-wall it is wall latency with host-bound workers (work scale 1).
// The host rate itself, `run.host_qps`, is per-layer: it swings too much
// between runs on a shared host to carry a bound (see the README).
const SETUP: &[&str] = &["setup_s"];
const MODELED: &[&str] = &["modeled_qps"];
const TAIL: &[&str] = &["p99_ms"];
const LATENCY: &[&str] = &["p50_ms", "p99_ms"];
const MODELED_TAIL: &[&str] = &["modeled_qps", "p99_ms"];
const QUALITY: &[&str] = &["recall_at_k"];

/// Printed by every traced run, on every workload; a layer idle on a
/// workload reads 0 there.
pub const PER_LAYER: &[Def] = &[
    // annkit
    d("annkit.train_s", "s", L, SETUP),
    // builder
    d("builder.build_s", "s", L, SETUP),
    d("builder.placement_max_avg", "ratio", L, MODELED),
    d("builder.cooc_reduction_rate", "ratio", H, MODELED),
    d(
        "builder.total_replicas",
        "count",
        L,
        &["modeled_qps", "setup_s"],
    ),
    // engine (host side, timed by the probe)
    d("engine.calls", "count", L, MODELED_TAIL),
    d("engine.queries", "count", H, MODELED),
    d("engine.mean_batch", "count", H, MODELED),
    d("engine.host_s", "s", L, TAIL),
    d("engine.host_us_per_query", "us", L, TAIL),
    d("engine.modeled_s", "s", L, MODELED),
    d("engine.overruns", "count", L, TAIL),
    d("engine.dpu_max_avg", "ratio", L, MODELED),
    d("engine.schedule_max_avg", "ratio", L, MODELED),
    // engine work counters (WorkloadStats)
    d("engine.centroid_comparisons", "count", L, MODELED_TAIL),
    d("engine.luts_built", "count", L, MODELED_TAIL),
    d("engine.lut_entries", "count", L, MODELED_TAIL),
    d("engine.candidates_scanned", "count", L, MODELED_TAIL),
    d("engine.lut_lookups", "count", L, MODELED_TAIL),
    d("engine.code_bytes_read", "bytes", L, MODELED_TAIL),
    d("engine.topk_candidates", "count", L, MODELED_TAIL),
    d("engine.topk_insertions", "count", L, MODELED_TAIL),
    d("engine.lookups_per_candidate", "ratio", L, MODELED_TAIL),
    d("engine.topk_insert_ratio", "ratio", H, MODELED_TAIL),
    // pim (modeled stage seconds of the summed breakdown)
    d("pim.cluster_filtering_s", "s", L, MODELED_TAIL),
    d("pim.query_scheduling_s", "s", L, MODELED_TAIL),
    d("pim.query_transfer_s", "s", L, MODELED_TAIL),
    d("pim.lut_construction_s", "s", L, MODELED_TAIL),
    d("pim.distance_calc_s", "s", L, MODELED_TAIL),
    d("pim.combo_sum_s", "s", L, MODELED_TAIL),
    d("pim.topk_s", "s", L, MODELED_TAIL),
    d("pim.result_transfer_s", "s", L, MODELED_TAIL),
    d("pim.host_merge_s", "s", L, MODELED_TAIL),
    d("pim.query_broadcast_s", "s", L, MODELED_TAIL),
    d("pim.result_gather_s", "s", L, MODELED_TAIL),
    d("pim.coordinator_merge_s", "s", L, MODELED_TAIL),
    d("pim.compaction_stall_s", "s", L, MODELED_TAIL),
    d("pim.qps_per_watt", "1/s/W", H, MODELED),
    // baselines
    d("baselines.cpu_host_qps", "1/s", H, TAIL),
    d("baselines.cpu_modeled_qps", "1/s", H, MODELED),
    // compaction
    d("compaction.plan_s", "s", L, SETUP),
    d("compaction.install_s", "s", L, SETUP),
    d("compaction.events", "count", L, TAIL),
    d("compaction.snapshots", "count", L, SETUP),
    d("compaction.compactions", "count", L, TAIL),
    d("compaction.delete_panics", "count", L, QUALITY),
    // serve
    d("serve.host_self_s", "s", L, TAIL),
    d("serve.shed", "count", L, TAIL),
    d("serve.cache_hit_rate", "ratio", H, TAIL),
    d("serve.cache_invalidated", "count", L, TAIL),
    d("serve.batches", "count", L, MODELED),
    d("serve.mean_batch_size", "count", H, MODELED),
    d("serve.dispatched_chunks", "count", L, MODELED_TAIL),
    d("serve.split_batches", "count", L, TAIL),
    d("serve.mean_chunk_size", "count", H, MODELED_TAIL),
    d("serve.controller_adjustments", "count", L, TAIL),
    d("serve.modeled_utilization", "ratio", L, TAIL),
    d("serve.goodput_qps", "1/s", H, MODELED_TAIL),
    d("serve.slo_miss_fraction", "ratio", L, TAIL),
    d("serve.tight.p50_ms", "ms", L, LATENCY),
    d("serve.tight.p99_ms", "ms", L, TAIL),
    d("serve.bulk.p99_ms", "ms", L, TAIL),
    d("serve.bulk.slo_miss_fraction", "ratio", L, TAIL),
    d("serve.tight.final_window_ms", "ms", L, LATENCY),
    d("serve.bulk.final_window_ms", "ms", L, LATENCY),
    // replica
    d("replica.hedged", "count", L, TAIL),
    d("replica.redispatched", "count", L, TAIL),
    d("replica.degraded", "count", L, QUALITY),
    d("replica.scale_events", "count", L, TAIL),
    d("replica.migration_s", "s", L, TAIL),
    d("replica.recovery_s", "s", L, TAIL),
    d("envelope.baseline", "ratio", H, TAIL),
    d("envelope.max_dip", "ratio", L, TAIL),
    // runtime (serve-wall, reference rate unless named otherwise)
    d("runtime.offered", "count", H, TAIL),
    d("runtime.completed", "count", H, TAIL),
    d("runtime.shed", "count", L, TAIL),
    d("runtime.lost", "count", L, QUALITY),
    d("runtime.duplicated", "count", L, QUALITY),
    d("runtime.cache_hit_rate", "ratio", H, LATENCY),
    d("runtime.dispatched_chunks", "count", L, LATENCY),
    d("runtime.mean_chunk_size", "count", H, LATENCY),
    d("runtime.makespan_s", "s", L, TAIL),
    d("runtime.worker_host_busy_s", "s", L, TAIL),
    d("runtime.worker_host_util", "ratio", L, TAIL),
    d("runtime.process_cpu_s", "s", L, TAIL),
    d("runtime.nonengine_cpu_s", "s", L, TAIL),
    d("runtime.gen_lateness_p99_ms", "ms", L, TAIL),
    d("runtime.invalid_runs", "count", L, TAIL),
    d("runtime.slo_miss_fraction", "ratio", L, TAIL),
    d("runtime.overload_shed_fraction", "ratio", L, TAIL),
    d("runtime.overload_goodput_qps", "1/s", H, TAIL),
    d("runtime.max_in_slo_qps", "1/s", H, TAIL),
    // the run itself
    d("run.failed_fraction", "ratio", L, QUALITY),
    d("run.host_qps", "1/s", H, TAIL),
    d("trace.overhead", "ratio", L, TAIL),
];

/// What one run measured, and whether its checks passed.
#[derive(Debug, Default)]
pub struct Record {
    values: BTreeMap<&'static str, f64>,
    /// Queries offered by the measured operations.
    pub attempted: u64,
    /// Queries that got a wrong answer or none, excluding deliberate
    /// shedding at the overload rate.
    pub failed: u64,
    failures: Vec<String>,
}

impl Record {
    /// Records `value` for metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failed checks, in the order they were made.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The result line: every metric of `defs` with its unit. An end-to-end
    /// metric the workload did not record is a bug in the benchmark and
    /// fails the run; a per-layer metric it did not record reads 0 (the
    /// layer did no work). Non-finite values fail the run.
    pub fn result_json(&mut self, defs: &[Def], per_layer: bool) -> String {
        let mut parts = Vec::with_capacity(defs.len());
        for def in defs {
            let value = match self.values.get(def.name) {
                Some(&v) => v,
                None if per_layer => 0.0,
                None => {
                    self.failures
                        .push(format!("metric {} was not measured", def.name));
                    0.0
                }
            };
            let value = if value.is_finite() {
                value
            } else {
                self.failures
                    .push(format!("metric {} is not finite", def.name));
                0.0
            };
            parts.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(def.name),
                json_number(value),
                json_string(def.unit)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        )
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(x: f64) -> String {
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (nearest rank); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
