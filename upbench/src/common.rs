//! What the workloads share: run settings, seed derivation, set-up timing,
//! and the per-layer numbers every engine tally yields.

use std::collections::{BTreeMap, BTreeSet};

use annkit::flat::FlatIndex;
use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::recall::recall_at_k;
use annkit::synthetic::{SyntheticDataset, SyntheticSpec};
use annkit::topk::Neighbor;
use annkit::vector::Dataset;
use annkit::workload::{QueryStream, WorkloadSpec};
use baselines::engine::QueryOptions;
use pim_sim::config::PimConfig;
use upanns::builder::{BatchCapacity, UpAnnsBuilder};
use upanns::config::UpAnnsConfig;
use upanns::engine::UpAnnsEngine;
use upanns_serve::batcher::BatchFormerConfig;
use upanns_serve::{ServiceConfig, ServiceReport};

use crate::clock::Stopwatch;
use crate::metrics::{ratio, Record};
use crate::probe::Tally;
use crate::trace::Tracer;

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: f64,
    /// Reduced sizes, for the benchmark's own test.
    pub quick: bool,
    /// Span recorder of a traced run.
    pub tracer: Option<Tracer>,
}

impl Run {
    /// `full` normally, `quick` in the reduced-size mode.
    pub fn size<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// A seed for input stream `salt`, derived from the run's seed
    /// (SplitMix64 finalizer, so neighboring seeds give unrelated inputs).
    pub fn seed_for(&self, salt: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Runs `f` inside a span when tracing, making it the parent of the
    /// `execute` spans recorded meanwhile.
    pub fn workload_span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            None => f(),
            Some(tracer) => {
                let span = tracer.open(name, None);
                tracer.set_parent(&span);
                let out = f();
                tracer.clear_parent();
                tracer.close(span, Vec::new());
                out
            }
        }
    }
}

/// Untraced, runs `f`; traced, runs `f` once with `execute` spans paused
/// and returns its value as the untraced comparison for `trace.overhead`.
pub fn untraced_pass<T>(run: &Run, f: impl FnOnce() -> T) -> Option<T> {
    let tracer = run.tracer.as_ref()?;
    tracer.set_recording(false);
    let out = f();
    tracer.set_recording(true);
    Some(out)
}

/// The serve fixture's per-query options mix: two nprobe tiers at k = 10
/// and a k = 20 tier with a latency budget.
pub fn options_of(i: usize) -> QueryOptions {
    match i % 3 {
        0 => QueryOptions::new(10, 8),
        1 => QueryOptions::new(10, 4),
        _ => QueryOptions::new(20, 8).with_latency_budget(0.05),
    }
}

/// The serve fixture's front-end: a 512-slot admission queue, a fixed
/// 256-query / 25 ms batching window and a 512-entry result cache.
pub fn service_config(max_chunk: Option<usize>) -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 512,
        batcher: BatchFormerConfig {
            max_batch: 256,
            max_delay_s: 25e-3,
        },
        cache_capacity: 512,
        cache_lookup_s: 2e-6,
        slo_p99_s: None,
        max_chunk,
    }
}

/// Set-up is built several times per run. Each phase keeps its fastest
/// time over the repetitions and `setup_s` sums them (see [`FastestPass`]),
/// so a repetition slowed by other load on the host does not move it.
const SETUP_REPEATS: usize = 5;

/// Host time of set-up, total and by phase, over the repetitions.
pub struct Setup<'a> {
    run: &'a Run,
    phases: BTreeMap<&'static str, Vec<f64>>,
    /// Phase times of the repetition under way, in phase order.
    current: Vec<f64>,
    fastest: FastestPass,
}

impl<'a> Setup<'a> {
    /// Builds with `build` [`SETUP_REPEATS`] times (once in the quick
    /// mode) and keeps the last result.
    pub fn repeat<T>(run: &'a Run, mut build: impl FnMut(&mut Setup<'a>) -> T) -> (T, Setup<'a>) {
        let mut setup = Setup {
            run,
            phases: BTreeMap::new(),
            current: Vec::new(),
            fastest: FastestPass::default(),
        };
        let repeats = run.size(SETUP_REPEATS, 1);
        let mut last = None;
        for _ in 0..repeats {
            // Drop the previous build first so peak memory holds one copy.
            drop(last.take());
            let clock = Stopwatch::start();
            let built = build(&mut setup);
            let total_s = clock.elapsed_s();
            let phases = std::mem::take(&mut setup.current);
            setup
                .fastest
                .add(&phases, total_s - phases.iter().sum::<f64>());
            last = Some(built);
        }
        (last.expect("at least one set-up repetition"), setup)
    }

    /// Times `f` as set-up phase `name`, with a span when tracing.
    pub fn phase<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let clock = Stopwatch::start();
        let out = match &self.run.tracer {
            Some(tracer) => tracer.scope(&format!("setup.{name}"), None, f),
            None => f(),
        };
        let elapsed = clock.elapsed_s();
        self.phases.entry(name).or_default().push(elapsed);
        self.current.push(elapsed);
        out
    }

    /// Fastest host seconds of phase `name` over the repetitions (0 if it
    /// never ran).
    pub fn phase_s(&self, name: &str) -> f64 {
        self.phases.get(name).map_or(0.0, |times| {
            times.iter().copied().fold(f64::INFINITY, f64::min)
        })
    }

    /// Records `setup_s` and the phase metrics every workload shares.
    pub fn record(&self, rec: &mut Record) {
        rec.set("setup_s", self.fastest.host_s());
        rec.set("annkit.train_s", self.phase_s("train"));
        rec.set("builder.build_s", self.phase_s("build"));
    }
}

/// Host time of one repeated unit of work, robust to a shared host. Every
/// repeat of the unit makes the same calls in the same order, so each call
/// keeps its fastest time over the repeats, and the host time outside the
/// calls keeps its own fastest. On a host whose speed swings with other
/// tenants' load from moment to moment, the fastest of many short timings
/// of the same work varies far less than the time of any whole repeat.
#[derive(Debug, Clone, Default)]
pub struct FastestPass {
    calls: Vec<f64>,
    rest: Option<f64>,
}

impl FastestPass {
    /// Adds one repeat: its per-call host seconds and its host seconds
    /// outside the calls. A repeat that made other calls than the first is
    /// left out; the workloads' repeat checks report it.
    pub fn add(&mut self, calls: &[f64], rest: f64) {
        if self.rest.is_none() {
            self.calls = calls.to_vec();
        } else if self.calls.len() == calls.len() {
            for (fastest, &t) in self.calls.iter_mut().zip(calls) {
                *fastest = fastest.min(t);
            }
        } else {
            return;
        }
        self.rest = Some(self.rest.map_or(rest, |r| r.min(rest)));
    }

    /// Host seconds of the unit from its fastest parts.
    pub fn host_s(&self) -> f64 {
        self.calls.iter().sum::<f64>() + self.rest.unwrap_or(0.0)
    }
}

/// Seeds of the fixed fixture. The corpus, its index and the placement
/// history are the same on every `--seed`, so the spread between seeds
/// measures the workload rather than a different dataset; `--seed` draws
/// the queries, arrival times and mutations.
pub const CORPUS_SEED: u64 = 7;
pub const TRAIN_SEED: u64 = 5;
const HISTORY_SEED: u64 = 8;

/// The fixture's synthetic SIFT-like corpus of `n` vectors with 16
/// generative clusters.
pub fn corpus(n: usize) -> SyntheticDataset {
    SyntheticSpec::sift_like(n)
        .with_clusters(16)
        .with_seed(CORPUS_SEED)
        .generate_with_meta()
}

/// The fixture's 600-query history that placement reads cluster
/// popularity from.
pub fn history(data: &SyntheticDataset) -> Dataset {
    WorkloadSpec::new(600)
        .with_seed(HISTORY_SEED)
        .generate(data)
        .queries
}

/// Trains the fixture's IVF-PQ index (16 sub-quantizers) over `data`.
pub fn train(data: &Dataset, nlist: usize, train_size: usize) -> IvfPqIndex {
    IvfPqIndex::train(
        data,
        &IvfPqParams::new(nlist, 16).with_train_size(train_size),
        TRAIN_SEED,
    )
}

/// Builds the UpANNS engine over `index` on `dpus` simulated DPUs,
/// placing lists by the popularity `history` shows at `nprobe`.
pub fn build_upanns(
    index: &IvfPqIndex,
    dpus: usize,
    work_scale: f64,
    history: &Dataset,
    capacity: &BatchCapacity,
) -> UpAnnsEngine {
    UpAnnsBuilder::new(index)
        .with_config(UpAnnsConfig::upanns().with_work_scale(work_scale))
        .with_pim_config(PimConfig::with_dpus(dpus))
        .with_history(history, capacity.nprobe)
        .with_batch_capacity(capacity.clone())
        .build()
}

/// Mean recall of `answers` against exact search over `corpus`, each at
/// its own `k`, over every `stride`-th answered query (ids are row
/// positions in `corpus`). Returns `(mean recall, queries scored)`.
pub fn mean_recall(
    corpus: &Dataset,
    queries: &Dataset,
    answers: &[Vec<Neighbor>],
    k_of: impl Fn(usize) -> usize,
    stride: usize,
) -> (f64, usize) {
    let flat = FlatIndex::new(corpus);
    let mut sum = 0.0;
    let mut scored = 0usize;
    for (i, answer) in answers.iter().enumerate().step_by(stride.max(1)) {
        if answer.is_empty() {
            continue; // shed
        }
        let k = k_of(i);
        let exact = flat.search(queries.vector(i), k);
        sum += recall_at_k(std::slice::from_ref(answer), &[exact], k);
        scored += 1;
    }
    (ratio(sum, scored as f64), scored)
}

/// Records the `engine.*` and `pim.*` numbers of `tally`, and
/// `pim.qps_per_watt` against `peak_watts`.
pub fn record_engine(rec: &mut Record, tally: &Tally, peak_watts: f64) {
    let q = tally.queries as f64;
    rec.set("engine.calls", tally.calls as f64);
    rec.set("engine.queries", q);
    rec.set("engine.mean_batch", ratio(q, tally.calls as f64));
    rec.set("engine.host_s", tally.host_s);
    rec.set("engine.host_us_per_query", ratio(tally.host_s * 1e6, q));
    rec.set("engine.modeled_s", tally.modeled_s);
    rec.set("engine.overruns", tally.overruns as f64);
    rec.set("engine.dpu_max_avg", tally.dpu_max_avg());
    rec.set("engine.schedule_max_avg", tally.schedule_max_avg());
    let s = &tally.stats;
    rec.set("engine.centroid_comparisons", s.centroid_comparisons as f64);
    rec.set("engine.luts_built", s.luts_built as f64);
    rec.set("engine.lut_entries", s.lut_entries as f64);
    rec.set("engine.candidates_scanned", s.candidates_scanned as f64);
    rec.set("engine.lut_lookups", s.lut_lookups as f64);
    rec.set("engine.code_bytes_read", s.code_bytes_read as f64);
    rec.set("engine.topk_candidates", s.topk_candidates as f64);
    rec.set("engine.topk_insertions", s.topk_insertions as f64);
    rec.set(
        "engine.lookups_per_candidate",
        ratio(s.lut_lookups as f64, s.candidates_scanned as f64),
    );
    rec.set(
        "engine.topk_insert_ratio",
        ratio(s.topk_insertions as f64, s.topk_candidates as f64),
    );
    for (metric, stage) in PIM_STAGES {
        rec.set(metric, tally.breakdown.seconds(stage));
    }
    rec.set(
        "pim.qps_per_watt",
        ratio(ratio(q, tally.modeled_s), peak_watts),
    );
}

/// Per-layer metric and the breakdown stage it reads.
const PIM_STAGES: [(&str, &str); 13] = [
    ("pim.cluster_filtering_s", "cluster_filtering"),
    ("pim.query_scheduling_s", "query_scheduling"),
    ("pim.query_transfer_s", "query_transfer"),
    ("pim.lut_construction_s", "lut_construction"),
    ("pim.distance_calc_s", "distance_calc"),
    ("pim.combo_sum_s", "combo_sum"),
    ("pim.topk_s", "topk"),
    ("pim.result_transfer_s", "result_transfer"),
    ("pim.host_merge_s", "host_merge"),
    ("pim.query_broadcast_s", "query_broadcast"),
    ("pim.result_gather_s", "result_gather"),
    ("pim.coordinator_merge_s", "coordinator_merge"),
    ("pim.compaction_stall_s", "compaction_stall"),
];

/// In-SLO completions per second of the stream's arrival window (not of
/// the makespan, which would count the drain): each tenant's completions
/// within its own SLO, or within the stream's SLO for a tenant without one.
pub fn replay_goodput(report: &ServiceReport, stream: &QueryStream) -> f64 {
    let within: usize = report
        .tenants
        .iter()
        .map(|t| match t.slo_p99_s.or(stream.slo_p99_s) {
            Some(slo) => t.latencies_s.iter().filter(|&&l| l <= slo).count(),
            None => t.completed,
        })
        .sum();
    ratio(within as f64, stream.duration())
}

/// Whether two replays of one stream agree bit for bit on everything the
/// replay clock decides.
pub fn same_replay(a: &ServiceReport, b: &ServiceReport) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.completed == b.completed
        && a.shed == b.shed
        && a.makespan_s.to_bits() == b.makespan_s.to_bits()
        && bits(&a.latencies_s) == bits(&b.latencies_s)
        && a.results
            .iter()
            .zip(&b.results)
            .all(|(x, y)| same_ids(x, y))
}

/// Records the `builder.*` figures of a built engine.
pub fn record_builder(rec: &mut Record, engine: &UpAnnsEngine) {
    let placement = engine.placement();
    rec.set("builder.placement_max_avg", placement.max_to_avg_workload());
    rec.set("builder.total_replicas", placement.total_replicas() as f64);
    rec.set("builder.cooc_reduction_rate", engine.mean_reduction_rate());
}

/// Records the `serve.*` figures of one replay of `stream`; `self_s` is the
/// replay's host time outside the engine. The per-tenant rows read the
/// tenants named `tight` and `bulk`, where the stream has them.
pub fn record_service(rec: &mut Record, r: &ServiceReport, stream: &QueryStream, self_s: f64) {
    rec.set("serve.host_self_s", self_s);
    rec.set("serve.shed", r.shed as f64);
    rec.set("serve.cache_hit_rate", r.cache_hit_rate());
    rec.set("serve.cache_invalidated", r.cache_invalidated as f64);
    rec.set("serve.batches", r.batches() as f64);
    rec.set("serve.mean_batch_size", r.mean_batch_size());
    rec.set("serve.dispatched_chunks", r.dispatched_chunks as f64);
    rec.set("serve.split_batches", r.split_batches as f64);
    rec.set("serve.mean_chunk_size", r.mean_chunk_size());
    rec.set(
        "serve.controller_adjustments",
        r.controller_adjustments as f64,
    );
    rec.set(
        "serve.modeled_utilization",
        ratio(r.engine_busy_s, r.makespan_s),
    );
    rec.set("serve.goodput_qps", replay_goodput(r, stream));
    let worst = r
        .tenants
        .iter()
        .map(|t| t.slo_miss_fraction())
        .fold(0.0, f64::max);
    rec.set("serve.slo_miss_fraction", worst);
    for t in &r.tenants {
        match t.name.as_str() {
            "tight" => {
                rec.set("serve.tight.p50_ms", t.p50() * 1e3);
                rec.set("serve.tight.p99_ms", t.p99() * 1e3);
                rec.set(
                    "serve.tight.final_window_ms",
                    t.final_batcher.max_delay_s * 1e3,
                );
            }
            "bulk" => {
                rec.set("serve.bulk.p99_ms", t.p99() * 1e3);
                rec.set("serve.bulk.slo_miss_fraction", t.slo_miss_fraction());
                rec.set(
                    "serve.bulk.final_window_ms",
                    t.final_batcher.max_delay_s * 1e3,
                );
            }
            _ => {}
        }
    }
}

/// Whether `got` is the reference answer `expect` up to float rounding:
/// the same length, distances equal rank by rank within a relative 1e-5,
/// and the same ids apart from those tied with the last kept distance. The
/// UpANNS kernel sums LUT entries in another order than the reference
/// search, which can swap two neighbors whose distances tie to the last bit.
pub fn same_answer(got: &[Neighbor], expect: &[Neighbor]) -> bool {
    let close = |a: f32, b: f32| (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1.0);
    if got.len() != expect.len()
        || got
            .iter()
            .zip(expect)
            .any(|(a, b)| !close(a.distance, b.distance))
    {
        return false;
    }
    let Some(last) = expect.last() else {
        return true;
    };
    let untied = |answer: &[Neighbor]| -> BTreeSet<u64> {
        answer
            .iter()
            .filter(|n| !close(n.distance, last.distance))
            .map(|n| n.id)
            .collect()
    };
    untied(got) == untied(expect)
}

/// Whether two answer lists hold the same ids in the same order.
pub fn same_ids(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.id == y.id)
}
