//! `serve` — replay a timed query stream through the serving front-end on
//! every engine, under both a fixed and an SLO-adaptive batch policy, and
//! report sustained QPS, latency percentiles and SLO attainment.
//!
//! ```text
//! cargo run --release -p upanns-runtime --bin serve -- [--queries N] [--qps R]
//!     [--repeat F] [--slo-ms S] [--hosts H] [--max-chunk C]
//!     [--engines cpu,gpu,pim-naive,upanns,multihost]
//!     [--policy fixed|adaptive|both] [--tenants SPEC] [--json PATH]
//!     [--runtime replay|threaded|twin] [--workers LIST] [--sweep-qps LIST]
//!     [--work-scale X] [--queue N] [--answers PATH]
//!     [--replicas R] [--fault HOST@DOWN..UP[,...]] [--hedge-ms B]
//!     [--mutations upsert=QPS,delete=QPS[,seed=N] | none]
//! ```
//!
//! # Runtimes
//!
//! - `--runtime replay` (the default): a single-threaded discrete-event
//!   replay on a simulated clock. It is fully deterministic, so the
//!   default-flag `--json` output is the committed `BENCH_serving.json`
//!   regression baseline: rerun and diff.
//! - `--runtime threaded`: the real multi-threaded pipeline
//!   ([`upanns_runtime::pipeline`]) on the wall clock, one row per
//!   `--workers` count and `--sweep-qps` rate plus the multi-tenant,
//!   failover and live rows per worker count, at `--work-scale` (smaller
//!   than the replay's billion-scale projection, so a sweep finishes in
//!   minutes). The numbers are machine-dependent; CI checks the record's
//!   schema and conservation invariants, not the numbers.
//! - `--runtime twin`: the same pipeline in logical-trace mode. Arrival
//!   timestamps drive the batcher exactly as the replay clock would, and
//!   nothing sleeps. `--answers PATH` writes the answer map (one
//!   `workload TAB index TAB id,...` line per query) from the replay or
//!   the twin, and CI diffs the two byte for byte.
//!
//! # Scenarios
//!
//! Beside the single-tenant rows, the replay serves a **multi-tenant**
//! head-of-line scenario whenever `upanns` is selected: a tight-SLO tenant
//! next to a bulk tenant whose batches outlast the tight tenant's slack,
//! which only priority-chunked dispatch (`--max-chunk`) serves within both
//! SLOs. Whenever `multihost` is selected it serves the **kill-a-host
//! failover** scenario (`--replicas`, `--fault`, `--hedge-ms`), whose row
//! carries the fault counters and a [`RecoveryEnvelope`] CI asserts on.
//! Whenever `upanns` is selected and `--mutations` is not `none` it serves
//! the **live-mutation** rows: an epoch-stamped [`SnapshotTimeline`] with
//! background compaction per [`CompactionPolicy`], audited by
//! [`LiveSummary`] (`stale_served` must be 0). [`scenarios`] gives each
//! row's stream, policy and engine.
//!
//! # Structure
//!
//! [`scenarios`] builds one ordered list of [`Scenario`]s per run; rows
//! appear in list order. [`Fixture::engine`] is the one engine factory,
//! returning every engine boxed. Three runners consume the list:
//! [`replay`] (replay rows), [`pipeline`] (threaded and twin rows) and
//! [`answer_map`]. One ordered-object writer ([`Json`]) emits both records.
//!
//! [`SnapshotTimeline`]: annkit::mutation::SnapshotTimeline
//! [`CompactionPolicy`]: upanns::compaction::CompactionPolicy

#![forbid(unsafe_code)]

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::mutation::MutableIvf;
use annkit::synthetic::SyntheticSpec;
use annkit::vector::Dataset;
use annkit::workload::{
    MultiTenantSpec, MutationOp, MutationSpec, MutationStream, QueryStream, StreamSpec, TenantId,
    TenantSpec, WorkloadSpec,
};
use baselines::cpu::CpuFaissEngine;
use baselines::engine::{AnnEngine, QueryOptions, SearchRequest};
use baselines::gpu::GpuFaissEngine;
use pim_sim::config::PimConfig;
use upanns::builder::{BatchCapacity, UpAnnsBuilder};
use upanns::compaction::{plan_live_index, CompactionPolicy, LiveIndexPlan};
use upanns::config::UpAnnsConfig;
use upanns::engine::UpAnnsEngine;
use upanns::multihost::{shard_ranges, InterconnectModel, MultiHostUpAnns};
use upanns::replica::{FaultSchedule, ReplicatedMultiHost};
use upanns_runtime::{run_pipeline, RuntimeConfig, RuntimeReport};
use upanns_serve::batcher::BatchFormerConfig;
use upanns_serve::controller::{ControllerBank, SloController};
use upanns_serve::{
    planned_options, Autoscaler, BatchPolicy, CapacityModel, FixedPolicy, RecoveryEnvelope,
    SearchService, ServiceConfig, ServiceReport,
};

/// Fixed tiny-scale evaluation shape (kept stable so the JSON baseline is
/// comparable PR-over-PR).
const DATASET_N: usize = 4_000;
const NLIST: usize = 512;
const PQ_M: usize = 16;
const DPUS: usize = 896;
/// Modeled dataset size for the work-scale projection. Chosen so the modeled
/// per-cluster size (MODELED_N / NLIST = 244k vectors) matches the reference
/// billion-scale configuration (10^9 / 4096) that the `figures` experiments
/// use — per-DPU granule times are then comparable to fig12's.
const MODELED_N: f64 = 1.25e8;
/// The replay's modeled work scale: the tiny fixture projected to
/// [`MODELED_N`] vectors.
const REPLAY_WORK_SCALE: f64 = MODELED_N / DATASET_N as f64;

/// Every engine the binary knows how to build, in report order.
const KNOWN_ENGINES: [&str; 5] = ["cpu", "gpu", "pim-naive", "upanns", "multihost"];

/// Fixed shape of the committed kill-a-host failover scenario (see the
/// module docs). Three shards on three hosts with `--replicas 2` means one
/// host death leaves every shard covered — the dip comes from halved
/// effective parallelism and mid-flight redispatch, not lost answers.
const FAILOVER_SHARDS: usize = 3;
const FAILOVER_HOSTS: usize = 3;
/// The failover scenario's own stream: ~30 healthy seconds before the
/// default outage to establish a baseline, ~55 after it ends to drain the
/// backlog and prove recovery. The rate puts the chunk-capped deployment
/// near 80 % utilization, so stacking two shards on one surviving host
/// during the outage pushes it past saturation — the dip is real queueing,
/// not noise.
const FAILOVER_QUERIES: usize = 2_200;
const FAILOVER_QPS: f64 = 22.0;
/// Chunk cap for the failover scenario's dispatcher. Bounding the batch
/// amortization keeps the deployment's capacity roughly flat in offered
/// load, so losing a host genuinely saturates it instead of being absorbed
/// by ever-larger batches.
const FAILOVER_MAX_CHUNK: usize = 8;
const FAILOVER_SLO_MS: f64 = 2_500.0;
/// Envelope bucket width: wide enough that one bucket smooths Poisson
/// arrival noise at [`FAILOVER_QPS`], narrow enough to resolve the dip.
const ENVELOPE_BUCKET_S: f64 = 5.0;
/// Defaults for the failover flags — the committed baseline uses exactly
/// these, so a default-flag rerun reproduces `BENCH_serving.json` bytewise.
/// The down instant lands while a host-1 leg is in flight (so the committed
/// run exercises the redispatch path), and the hedge budget sits just above
/// one healthy shard leg (~0.2 s) and below a stacked two-leg pile-up
/// (~0.45 s), so hedges fire only while the outage is queueing work.
const DEFAULT_REPLICAS: usize = 2;
const DEFAULT_FAULT: &str = "1@31..45";
const DEFAULT_HEDGE_MS: f64 = 400.0;
/// `(hosts, sustained QPS)` samples for the autoscaler's linear capacity
/// model — the same OLS fit the `capacity_planning` example runs. The
/// samples are deliberately conservative (measured under small fixed
/// chunks, the scenario's worst case) so the planner keeps headroom; the
/// actual scale-up trigger is the SLO-miss window, with [`CapacityModel`]
/// bounding how far a step may reach.
const CAPACITY_SAMPLES: [(f64, f64); 4] = [(1.0, 5.8), (2.0, 11.2), (3.0, 16.4), (4.0, 21.3)];

/// The committed head-of-line (HOL) scenario: a tight-SLO low-rate tenant
/// sharing the engine with a loose-SLO bulk tenant whose batches are
/// individually *longer than the tight tenant's whole SLO*. Per-tenant
/// windows (the `adaptive-tenant` row) fix the window-level coupling but
/// not the engine-level one — the tight tenant still waits out whichever
/// bulk batch is in flight or already queued, and misses. Only the
/// priority-chunked dispatcher (`adaptive-tenant-chunked`) bounds that wait
/// to one chunk and meets both SLOs.
const DEFAULT_TENANTS: &str = "tight:qps=2,queries=200,slo-ms=700,weight=2,mix=10x8;\
                               bulk:qps=18,queries=1400,slo-ms=30000,weight=1,mix=10x4+10x8+20x8";

/// The threaded runtime's default multi-tenant mix: the same HOL shape as
/// [`DEFAULT_TENANTS`] but 3× the rate over an ~8-second arrival window,
/// because threaded rows burn *real* wall-clock time and run at a smaller
/// `--work-scale` (where the engine is proportionally faster). Calibrated
/// so the bulk tenant keeps one worker busy without overflowing the
/// admission queue — the committed rows show both tenants meeting their
/// SLOs under priority-chunked dispatch at every worker count.
const THREADED_TENANTS: &str = "tight:qps=6,queries=48,slo-ms=500,weight=2,mix=10x8;\
                                bulk:qps=54,queries=432,slo-ms=15000,weight=1,mix=10x4+10x8+20x8";

/// The committed live-mutation stream: upserts dominate (the corpus grows),
/// deletes churn, seed pinned so the epoch timeline — and therefore every
/// answer — is byte-reproducible. `--mutations none` turns the live rows
/// off entirely and reproduces the frozen-index baseline bytewise.
const DEFAULT_MUTATIONS: &str = "upsert=24,delete=8,seed=77";
/// Snapshot refresh cadence for the live-index plan: how many replay-clock
/// seconds of mutations accumulate before a new epoch becomes visible to
/// queries. Coarse enough that the default stream (~83 s) sees ~20 epochs
/// (a real staleness spread), fine enough that the recall-vs-staleness
/// buckets past lag 100 stay populated under the default rates.
const LIVE_REFRESH_S: f64 = 4.0;
/// The live growth scenario: the *last* tenant in the mix (the bulk tenant
/// in the committed default) grows its corpus mid-stream at this upsert
/// rate, with no deletes — the tenant-corpus-grows-mid-stream case.
const LIVE_GROWTH_UPSERT_QPS: f64 = 40.0;
/// The bench's compaction policy: the default skew trigger and cooldown but
/// a deliberately slow modeled fold. At the tiny fixture scale the default
/// 64 MiB/s folds the whole corpus in microseconds — no arrival ever lands
/// inside a window and the p99-during-compaction column measures nothing.
/// 256 KiB/s stretches each window to the order of a second, so the
/// committed rows catch real arrivals mid-compaction (and charge them the
/// modeled stall).
fn bench_compaction_policy() -> CompactionPolicy {
    CompactionPolicy {
        bytes_per_second: 256.0 * 1024.0,
        ..CompactionPolicy::default()
    }
}

/// Recall-vs-staleness bucket edges, by mutation lag: how many mutations the
/// served snapshot trails the exact corpus by at the query's arrival.
const STALENESS_BUCKETS: [(&str, u64, u64); 4] = [
    ("lag=0", 0, 0),
    ("lag=1-10", 1, 10),
    ("lag=11-100", 11, 100),
    ("lag=101+", 101, u64::MAX),
];

/// Modeled work scale of the threaded engines. The replay projects to
/// billion scale (`MODELED_N / DATASET_N` ≈ 31250) because simulated seconds
/// are free; the threaded runtime *emulates* modeled seconds in real time,
/// so it defaults to a smaller projection that keeps a full sweep under a
/// few minutes while leaving per-batch service times (milliseconds) far
/// above the host's sleep granularity. At this scale one UpANNS worker
/// saturates near ~300 QPS on the default stream, so the default
/// `--sweep-qps` top end (960) drives 1 worker deep into overload while 4
/// workers still keep up — the scaling knee lands inside the sweep.
const THREADED_WORK_SCALE: f64 = 4_000.0;

struct Args {
    queries: usize,
    qps: f64,
    repeat: f64,
    slo_ms: f64,
    hosts: usize,
    max_chunk: usize,
    engines: Vec<String>,
    policies: Vec<Policy>,
    /// `--tenants`, or `None` for the runtime's built-in mix.
    tenants: Option<String>,
    json: Option<String>,
    runtime: RuntimeKind,
    workers: Vec<usize>,
    sweep_qps: Vec<f64>,
    work_scale: f64,
    queue: Option<usize>,
    answers: Option<String>,
    replicas: usize,
    fault: String,
    hedge_ms: f64,
    mutations: String,
}

impl Args {
    /// Whether `--engines` selected the engine `name`.
    fn selected(&self, name: &str) -> bool {
        self.engines.iter().any(|e| e == name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    Fixed,
    Adaptive,
}

/// Which front-end serves the stream (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuntimeKind {
    /// Single-threaded discrete-event replay (the committed baseline).
    Replay,
    /// The real multi-threaded pipeline against the wall clock.
    Threaded,
    /// The multi-threaded pipeline in deterministic logical-trace mode.
    Twin,
}


fn usage() -> ! {
    eprintln!(
        "usage: serve [--queries N] [--qps R] [--repeat F] [--slo-ms S] [--hosts H]\n\
         \x20            [--max-chunk C] [--engines cpu,gpu,pim-naive,upanns,multihost] \n\
         \x20            [--policy fixed|adaptive|both] [--tenants SPEC] [--json PATH]\n\
         \x20            [--runtime replay|threaded|twin] [--workers LIST]\n\
         \x20            [--sweep-qps LIST] [--work-scale X] [--queue N] [--answers PATH]\n\
         \x20            [--replicas R] [--fault HOST@DOWN..UP[,...]] [--hedge-ms B]\n\
         \x20            [--mutations upsert=QPS,delete=QPS[,seed=N] | none]\n\
         \n\
         --mutations drives the live-mutation scenario (run whenever upanns is\n\
         selected): a deterministic upsert/delete stream is folded into an\n\
         epoch-stamped snapshot timeline (refresh every 4 s, background\n\
         compaction on list-size skew) that the engine serves while the\n\
         queries replay. 'none' disables it and reproduces the frozen-index\n\
         rows bytewise.\n\
         \n\
         The failover scenario (run whenever multihost is selected) serves a\n\
         replicated deployment under the --fault outage schedule: --replicas\n\
         copies of each shard (default 2; must be 1..=3 for the 3-host\n\
         deployment), hedged retries past --hedge-ms, and an SLO-feedback\n\
         autoscaler. The report row carries the fault counters and the\n\
         recovery envelope CI asserts on.\n\
         \n\
         --runtime threaded runs the real multi-threaded pipeline (wall clock):\n\
         one row per --workers value per --sweep-qps offered rate, plus one\n\
         multi-tenant row per worker count, on a PIM-backed engine at\n\
         --work-scale. --runtime twin runs the same pipeline in deterministic\n\
         logical-trace mode; with --answers PATH it writes the answer map and\n\
         exits (byte-identical to --runtime replay --answers on the same\n\
         stream). --queue overrides the admission queue capacity.\n\
         \n\
         --max-chunk caps how many queries one dispatch may commit the engine to\n\
         in the chunked multi-tenant row (adaptive-tenant-chunked).\n\
         \n\
         --tenants grammar: NAME:key=val,...;NAME:... with keys qps (required),\n\
         queries, slo-ms, weight, repeat, mix (KxN pairs joined by '+'), e.g.\n\
         \x20  tight:qps=3,slo-ms=2500,weight=2,mix=10x8;bulk:qps=30,mix=10x4+20x8\n\
         The multi-tenant scenario replays on the upanns engine when selected."
    );
    std::process::exit(0);
}

/// Exits nonzero with a clear message — the fate of an unknown engine,
/// policy name, or malformed tenant spec (silently skipping it would fake a
/// clean bench run).
fn reject(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// [`reject`]s with `message` unless `ok`.
fn ensure(ok: bool, message: impl std::fmt::Display) {
    if !ok {
        reject(message.to_string());
    }
}

/// Parses the `--tenants` grammar (see [`usage`]) into a [`MultiTenantSpec`].
/// Tenant ids are assigned by position (1-based).
fn parse_tenants(spec: &str) -> MultiTenantSpec {
    let mut mix = MultiTenantSpec::new();
    for (index, entry) in spec.split(';').enumerate() {
        let entry = entry.trim();
        ensure(!entry.is_empty(), format!("--tenants: empty tenant entry at position {index}"));
        let (name, body) = entry
            .split_once(':')
            .unwrap_or_else(|| reject(format!("--tenants: '{entry}' has no NAME: prefix")));
        let name = name.trim();
        // Names are echoed verbatim into the JSON baseline, so keep them to
        // characters that need no escaping anywhere.
        ensure(
            !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'),
            format!("--tenants: tenant name '{name}' must be non-empty [A-Za-z0-9_-]"),
        );
        let mut qps: Option<f64> = None;
        let mut queries = 600usize;
        let mut slo_ms: Option<f64> = None;
        let mut weight = 1u32;
        let mut repeat = 0.0f64;
        let mut option_mix: Vec<(usize, usize)> = vec![(10, 8)];
        fn bad<T>(kv: &str, what: &str) -> T {
            reject(format!("--tenants: {kv}: {what}"))
        }
        for kv in body.split(',') {
            let (key, value) = kv
                .split_once('=')
                .unwrap_or_else(|| reject(format!("--tenants: '{kv}' is not key=value")));
            match key.trim() {
                "qps" => qps = Some(value.parse().unwrap_or_else(|_| bad(kv, "not a number"))),
                "queries" => queries = value.parse().unwrap_or_else(|_| bad(kv, "not an integer")),
                "slo-ms" => slo_ms = Some(value.parse().unwrap_or_else(|_| bad(kv, "not a number"))),
                "weight" => weight = value.parse().unwrap_or_else(|_| bad(kv, "not an integer")),
                "repeat" => repeat = value.parse().unwrap_or_else(|_| bad(kv, "not a number")),
                "mix" => {
                    let tier = |tier: &str| {
                        let (k, nprobe) =
                            tier.split_once('x').unwrap_or_else(|| bad(kv, "mix tiers are KxN"));
                        let k = k.parse().unwrap_or_else(|_| bad(kv, "k not an integer"));
                        (k, nprobe.parse().unwrap_or_else(|_| bad(kv, "nprobe not an integer")))
                    };
                    option_mix = value.split('+').map(tier).collect();
                }
                other => reject(format!(
                    "--tenants: unknown key '{other}' (known: qps, queries, slo-ms, weight, repeat, mix)"
                )),
            }
        }
        let qps =
            qps.unwrap_or_else(|| reject(format!("--tenants: tenant '{name}' needs qps=")));
        let check = |ok: bool, what: &str| ensure(ok, format!("--tenants: tenant '{name}': {what}"));
        check(qps > 0.0 && qps.is_finite(), "qps must be positive");
        check(queries > 0, "queries must be at least 1");
        check(weight > 0, "weight must be at least 1");
        check((0.0..=1.0).contains(&repeat), "repeat must be in [0, 1]");
        check(
            option_mix.iter().all(|&(k, nprobe)| k > 0 && nprobe > 0),
            "mix tiers need k and nprobe >= 1",
        );
        let mut stream = StreamSpec::new(queries, qps).with_repeat_fraction(repeat);
        if let Some(ms) = slo_ms {
            check(ms > 0.0 && ms.is_finite(), "slo-ms must be positive");
            stream = stream.with_slo_p99(ms / 1e3);
        }
        mix = mix.with_tenant(
            TenantSpec::new(TenantId(index as u32 + 1), stream)
                .with_name(name)
                .with_weight(weight)
                .with_option_mix(option_mix),
        );
    }
    mix
}

/// The `--mutations` rates, parsed. `None` means `--mutations none`.
#[derive(Debug, Clone, Copy)]
struct LiveMutationArgs {
    upsert_qps: f64,
    delete_qps: f64,
    seed: u64,
}

/// Parses the `--mutations` grammar: `upsert=QPS,delete=QPS[,seed=N]` (any
/// subset of keys, rates default to 0, seed to the committed default) or the
/// literal `none`. Malformed specs exit 2 — silently serving a frozen index
/// when live rows were asked for would fake a clean bench run.
fn parse_mutations(spec: &str) -> Option<LiveMutationArgs> {
    if spec.trim() == "none" {
        return None;
    }
    let mut out = LiveMutationArgs {
        upsert_qps: 0.0,
        delete_qps: 0.0,
        seed: 77,
    };
    for kv in spec.split(',') {
        let kv = kv.trim();
        let (key, value) = kv.split_once('=').unwrap_or_else(|| {
            reject(format!(
                "--mutations: '{kv}' is not key=value \
                 (grammar: upsert=QPS,delete=QPS[,seed=N], or 'none')"
            ))
        });
        fn bad<T>(kv: &str, what: &str) -> T {
            reject(format!("--mutations: {kv}: {what}"))
        }
        match key.trim() {
            "upsert" => out.upsert_qps = value.parse().unwrap_or_else(|_| bad(kv, "not a number")),
            "delete" => out.delete_qps = value.parse().unwrap_or_else(|_| bad(kv, "not a number")),
            "seed" => out.seed = value.parse().unwrap_or_else(|_| bad(kv, "not an integer")),
            other => reject(format!(
                "--mutations: unknown key '{other}' (known: upsert, delete, seed)"
            )),
        }
    }
    for (name, rate) in [("upsert", out.upsert_qps), ("delete", out.delete_qps)] {
        ensure(
            rate >= 0.0 && rate.is_finite(),
            format!("--mutations: {name} rate must be non-negative and finite"),
        );
    }
    ensure(
        out.upsert_qps > 0.0 || out.delete_qps > 0.0,
        "--mutations: at least one rate must be positive (use 'none' to disable)",
    );
    Some(out)
}

/// Parses `flag`'s comma list, rejecting an entry that is not `what`.
fn parse_list<T: std::str::FromStr>(flag: &str, value: &str, what: &str) -> Vec<T> {
    value
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| reject(format!("{flag}: '{s}' is not {what}")))
        })
        .collect()
}

fn parse_args() -> Args {
    let mut args = Args {
        queries: 1_000,
        qps: 12.0,
        repeat: 0.25,
        slo_ms: 6_000.0,
        hosts: 2,
        max_chunk: 32,
        engines: KNOWN_ENGINES.iter().map(|s| s.to_string()).collect(),
        policies: vec![Policy::Fixed, Policy::Adaptive],
        tenants: None,
        json: None,
        runtime: RuntimeKind::Replay,
        workers: vec![1, 2, 4],
        sweep_qps: vec![60.0, 120.0, 240.0, 480.0, 960.0],
        work_scale: THREADED_WORK_SCALE,
        queue: None,
        answers: None,
        replicas: DEFAULT_REPLICAS,
        fault: DEFAULT_FAULT.to_string(),
        hedge_ms: DEFAULT_HEDGE_MS,
        mutations: DEFAULT_MUTATIONS.to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--queries" => args.queries = value("--queries").parse().expect("--queries: integer"),
            "--qps" => args.qps = value("--qps").parse().expect("--qps: number"),
            "--repeat" => args.repeat = value("--repeat").parse().expect("--repeat: number"),
            "--slo-ms" => args.slo_ms = value("--slo-ms").parse().expect("--slo-ms: number"),
            "--max-chunk" => {
                args.max_chunk = value("--max-chunk").parse().expect("--max-chunk: integer");
                ensure(args.max_chunk > 0, "--max-chunk must be at least 1");
            }
            "--hosts" => {
                args.hosts = value("--hosts").parse().expect("--hosts: integer");
                // Each host needs a meaningful share of the fixed tiny-scale
                // fixture (DPUs, IVF lists, training vectors).
                ensure(
                    (1..=16).contains(&args.hosts),
                    format!(
                        "--hosts {} out of range (the tiny-scale fixture supports 1..=16 hosts)",
                        args.hosts
                    ),
                );
            }
            "--engines" => {
                args.engines = value("--engines")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                ensure(!args.engines.is_empty(), "--engines: empty engine list");
                for name in &args.engines {
                    ensure(
                        KNOWN_ENGINES.contains(&name.as_str()),
                        format!(
                            "unknown engine '{name}' (known engines: {})",
                            KNOWN_ENGINES.join(", ")
                        ),
                    );
                }
            }
            "--policy" => {
                args.policies = match value("--policy").as_str() {
                    "fixed" => vec![Policy::Fixed],
                    "adaptive" => vec![Policy::Adaptive],
                    "both" => vec![Policy::Fixed, Policy::Adaptive],
                    other => reject(format!(
                        "unknown policy '{other}' (known policies: fixed, adaptive, both)"
                    )),
                };
            }
            "--tenants" => {
                let spec = value("--tenants");
                // Parse eagerly so a malformed spec exits 2 before any replay.
                let _ = parse_tenants(&spec);
                args.tenants = Some(spec);
            }
            "--runtime" => {
                args.runtime = match value("--runtime").as_str() {
                    "replay" => RuntimeKind::Replay,
                    "threaded" => RuntimeKind::Threaded,
                    "twin" => RuntimeKind::Twin,
                    other => reject(format!(
                        "unknown runtime '{other}' (known runtimes: replay, threaded, twin)"
                    )),
                };
            }
            "--workers" => {
                args.workers = parse_list("--workers", &value("--workers"), "an integer");
                ensure(
                    !args.workers.is_empty() && args.workers.iter().all(|w| (1..=32).contains(w)),
                    "--workers: need a comma list of counts in 1..=32",
                );
            }
            "--sweep-qps" => {
                args.sweep_qps = parse_list("--sweep-qps", &value("--sweep-qps"), "a number");
                ensure(
                    !args.sweep_qps.is_empty()
                        && args.sweep_qps.iter().all(|&q| q > 0.0 && q.is_finite()),
                    "--sweep-qps: need a comma list of positive rates",
                );
            }
            "--work-scale" => {
                args.work_scale = value("--work-scale").parse().expect("--work-scale: number");
                ensure(
                    args.work_scale >= 1.0 && args.work_scale.is_finite(),
                    "--work-scale must be at least 1",
                );
            }
            "--queue" => {
                args.queue = Some(value("--queue").parse().expect("--queue: integer"));
                ensure(args.queue != Some(0), "--queue must be at least 1");
            }
            "--answers" => args.answers = Some(value("--answers")),
            "--replicas" => {
                args.replicas = value("--replicas")
                    .parse()
                    .unwrap_or_else(|_| reject("--replicas: not an integer".to_string()));
                ensure(args.replicas > 0, "--replicas must be at least 1");
                ensure(
                    args.replicas <= FAILOVER_HOSTS,
                    format!(
                        "--replicas {} exceeds the failover deployment's {FAILOVER_HOSTS} hosts; \
                         refusing to co-locate replicas on one failure domain",
                        args.replicas
                    ),
                );
            }
            "--fault" => {
                args.fault = value("--fault");
                // Parse eagerly so a malformed schedule exits 2 before any
                // replay.
                if let Err(err) = FaultSchedule::parse(&args.fault) {
                    reject(format!("--fault: {err}"));
                }
            }
            "--hedge-ms" => {
                args.hedge_ms = value("--hedge-ms")
                    .parse()
                    .unwrap_or_else(|_| reject("--hedge-ms: not a number".to_string()));
                ensure(
                    args.hedge_ms > 0.0 && args.hedge_ms.is_finite(),
                    "--hedge-ms must be a positive number",
                );
            }
            "--mutations" => {
                args.mutations = value("--mutations");
                // Parse eagerly so a malformed spec exits 2 before any replay.
                let _ = parse_mutations(&args.mutations);
            }
            "--json" => args.json = Some(value("--json")),
            "--help" | "-h" => usage(),
            other => reject(format!("unknown flag {other} (try --help)")),
        }
    }
    args
}

/// The per-query options mix: two nprobe tiers at k=10 plus a k=20 tier
/// carrying a latency budget (exercises mixed-options batching end to end).
fn options_of(index: usize) -> QueryOptions {
    match index % 3 {
        0 => QueryOptions::new(10, 8),
        1 => QueryOptions::new(10, 4),
        _ => QueryOptions::new(20, 8).with_latency_budget(0.05),
    }
}

/// Every engine the binary serves, behind one type: scenarios and runners
/// never match on engine names, only [`Fixture::engine`] does.
type Engine = Box<dyn AnnEngine + Send>;

/// Factory name of the failover scenario's replicated deployment.
const FAILOVER_ENGINE: &str = "replicated";

/// What the binary produces this run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Replay rows, their tables and `BENCH_serving.json`.
    Report,
    /// The answer map, from the replay or the twin (`--answers`, `--runtime twin`).
    Answers,
    /// The threaded sweep and its `upanns-runtime-bench-v3` record.
    Threaded,
}

/// A mutation stream and the live-index plan it folds into.
struct LiveRun {
    events: MutationStream,
    plan: LiveIndexPlan,
}

/// Everything a run serves: the corpus and its indexes, every stream and
/// live-index plan the scenario list points into, and the flags.
struct Fixture<'a> {
    args: &'a Args,
    mode: Mode,
    index: IvfPqIndex,
    history: Dataset,
    /// One index per `--hosts` host, for `multihost` (empty unless selected).
    shard_indexes: Vec<IvfPqIndex>,
    /// One index per [`FAILOVER_SHARDS`] shard, for the replicated deployment.
    failover_indexes: Vec<IvfPqIndex>,
    faults: FaultSchedule,
    /// The single-tenant stream (`--queries` at `--qps`).
    stream: QueryStream,
    /// The threaded sweep's `(offered QPS, stream)` pairs.
    sweep: Vec<(f64, QueryStream)>,
    /// The tenant spec this run serves, its stream and its offered rate.
    tenants: String,
    tstream: QueryStream,
    multi_offered: f64,
    /// The failover scenario's own stream.
    failover: QueryStream,
    /// The single-tenant stream's live-index plan (`--mutations`).
    live: Option<LiveRun>,
    /// The live-growth plan: the last tenant's corpus grows mid-stream.
    growth: Option<LiveRun>,
}

impl<'a> Fixture<'a> {
    fn build(args: &'a Args, mode: Mode) -> Self {
        let dataset = SyntheticSpec::sift_like(DATASET_N).with_clusters(16).with_seed(7);
        let dataset = dataset.generate_with_meta();
        let params = IvfPqParams::new(NLIST, PQ_M).with_train_size(2_400);
        let index = IvfPqIndex::train(&dataset.vectors, &params, 5);
        let history = WorkloadSpec::new(600).with_seed(8).generate(&dataset).queries;
        // Multihost shards: one IVFPQ index per host over a contiguous slice
        // of the corpus, with globally unique ids; each stored vector keeps
        // the same modeled scale, so the deployment models the same corpus.
        let shard = |shards: usize| -> Vec<IvfPqIndex> {
            if !args.selected("multihost") {
                return Vec::new();
            }
            shard_ranges(dataset.vectors.len(), shards)
                .iter()
                .map(|r| {
                    let rows: Vec<usize> = r.clone().collect();
                    let part = dataset.vectors.gather(&rows);
                    let params = IvfPqParams::new((NLIST / shards).max(16), PQ_M)
                        .with_train_size(2_400 / shards);
                    let mut ix = IvfPqIndex::train_empty(&part, &params, 5);
                    ix.add(&part, r.start as u64);
                    ix
                })
                .collect()
        };
        // The failover deployment has its own fixed shard set, decoupled
        // from --hosts so the committed recovery envelope stays comparable.
        let (shard_indexes, failover_indexes) = (shard(args.hosts), shard(FAILOVER_SHARDS));

        let slo_s = args.slo_ms / 1e3;
        let spec = |n: usize, qps: f64| StreamSpec::new(n, qps).with_repeat_fraction(args.repeat);
        let stream = spec(args.queries, args.qps).with_slo_p99(slo_s).generate(&dataset);
        // Bound each threaded row's real duration to roughly six wall-clock
        // seconds of offered stream: enough arrivals to smooth the Poisson
        // noise, capped by --queries.
        let sweep_rates: &[f64] = if mode == Mode::Threaded { &args.sweep_qps } else { &[] };
        let sweep = sweep_rates
            .iter()
            .map(|&qps| {
                let n = args.queries.min(((qps * 6.0) as usize).max(240));
                (qps, spec(n, qps).with_slo_p99(slo_s).generate(&dataset))
            })
            .collect();
        // The threaded default tenant mix is rescaled for wall-clock runs;
        // an explicit --tenants always wins.
        let default = if mode == Mode::Threaded { THREADED_TENANTS } else { DEFAULT_TENANTS };
        let tenants = args.tenants.clone().unwrap_or_else(|| default.to_string());
        let mix = parse_tenants(&tenants);
        let tstream = mix.generate(&dataset);
        let failover = spec(FAILOVER_QUERIES, FAILOVER_QPS)
            .with_slo_p99(FAILOVER_SLO_MS / 1e3)
            .generate(&dataset);

        // Only the UpANNS engine serves a live index (the multihost tiers
        // decline timelines — documented residue).
        let live_args = parse_mutations(&args.mutations);
        if live_args.is_some() && !args.selected("upanns") {
            eprintln!("note: --mutations set but upanns is not selected; skipping live rows");
        }
        let live_args = live_args.filter(|_| args.selected("upanns"));
        let plan = |spec: MutationSpec| {
            let events = spec.generate(&dataset, index.ntotal());
            let plan = plan_live_index(&index, &events, LIVE_REFRESH_S, &bench_compaction_policy());
            eprintln!(
                "live-index plan: {} events -> {} snapshots, {} compaction(s), final epoch {}",
                events.len(),
                plan.timeline.entries().len(),
                plan.compactions.len(),
                plan.final_epoch
            );
            LiveRun { events, plan }
        };
        let live = live_args.map(|la| {
            plan(MutationSpec::new(stream.duration())
                .with_tenant(TenantId::DEFAULT, la.upsert_qps, la.delete_qps)
                .with_seed(la.seed))
        });
        let growth = live_args.filter(|_| mode == Mode::Report).map(|la| {
            plan(MutationSpec::new(tstream.duration())
                .with_tenant(TenantId(mix.tenants.len() as u32), LIVE_GROWTH_UPSERT_QPS, 0.0)
                .with_seed(la.seed ^ 0x9E37_79B9))
        });
        Self {
            args,
            mode,
            faults: FaultSchedule::parse(&args.fault)
                .unwrap_or_else(|err| reject(format!("--fault: {err}"))),
            multi_offered: mix.tenants.iter().map(|t| t.stream.mean_qps).sum(),
            index,
            history,
            shard_indexes,
            failover_indexes,
            stream,
            sweep,
            tenants,
            tstream,
            failover,
            live,
            growth,
        }
    }

    /// The engine factory: a fresh engine of kind `name` (one of
    /// [`KNOWN_ENGINES`] or [`FAILOVER_ENGINE`]) at modeled `work_scale`.
    fn engine(&self, name: &str, work_scale: f64) -> Engine {
        let pim = |index: &IvfPqIndex, config: UpAnnsConfig, dpus: usize| {
            UpAnnsBuilder::new(index)
                .with_config(config.with_work_scale(work_scale))
                .with_pim_config(PimConfig::with_dpus(dpus))
                .with_history(&self.history, 8)
                .with_batch_capacity(BatchCapacity { batch_size: 64, nprobe: 8, max_k: 20 })
                .build()
        };
        let shards = |indexes: &[IvfPqIndex], dpus: usize| -> Vec<UpAnnsEngine> {
            indexes.iter().map(|ix| pim(ix, UpAnnsConfig::upanns(), dpus)).collect()
        };
        let interconnect = InterconnectModel::default();
        match name {
            "cpu" => Box::new(CpuFaissEngine::new(&self.index).with_work_scale(work_scale)),
            "gpu" => Box::new(GpuFaissEngine::new(&self.index).with_work_scale(work_scale)),
            "pim-naive" => Box::new(pim(&self.index, UpAnnsConfig::pim_naive(), DPUS)),
            "upanns" => Box::new(pim(&self.index, UpAnnsConfig::upanns(), DPUS)),
            "multihost" => Box::new(MultiHostUpAnns::new(
                shards(&self.shard_indexes, DPUS / self.args.hosts),
                interconnect,
            )),
            FAILOVER_ENGINE => match ReplicatedMultiHost::new(
                shards(&self.failover_indexes, DPUS / FAILOVER_SHARDS),
                FAILOVER_HOSTS,
                self.args.replicas,
                interconnect,
            ) {
                Ok(engine) => Box::new(
                    engine
                        .with_faults(self.faults.clone())
                        .with_hedge_budget(self.args.hedge_ms / 1e3),
                ),
                Err(err) => reject(format!("--replicas: {err}")),
            },
            // parse_args rejects anything outside KNOWN_ENGINES.
            other => unreachable!("engine '{other}' escaped --engines validation"),
        }
    }
}

/// The batch policy a scenario runs under.
#[derive(Debug, Clone, Copy)]
enum Batching {
    /// The config's fixed low-latency window.
    Fixed,
    /// One global [`SloController`] targeting this p99 (seconds).
    Slo(f64),
    /// The per-tenant [`ControllerBank`] over the stream's profiles.
    TenantBank,
}

/// One row of a run: what to serve, on which engine, under which front-end.
#[derive(Clone, Copy)]
struct Scenario<'a> {
    /// Row label (`single`, `multi`, `failover`, `live-mutation`,
    /// `live-growth`) or answer-map section.
    workload: &'static str,
    /// Factory name of the engine (see [`Fixture::engine`]).
    engine: &'a str,
    /// Modeled work scale the engine is built at.
    work_scale: f64,
    /// Continue on the previous scenario's engine instead of building a
    /// fresh one (replay only: the policies of one scenario share an engine,
    /// threaded through [`SearchService::into_engine`]).
    reuse_engine: bool,
    stream: &'a QueryStream,
    /// Options from the stream's tenant plan rather than [`options_of`].
    planned: bool,
    config: ServiceConfig,
    batching: Batching,
    /// The live-index plan the engine serves, if any.
    live: Option<&'a LiveRun>,
    /// Attach the failover [`Autoscaler`] (replay rows only).
    autoscale: bool,
    /// Offered rate recorded in threaded rows.
    offered_qps: f64,
}

impl Scenario<'_> {
    fn options(&self, i: usize) -> QueryOptions {
        if self.planned {
            planned_options(self.stream, i)
        } else {
            options_of(i)
        }
    }

    fn batch_policy(&self) -> Box<dyn BatchPolicy> {
        match self.batching {
            Batching::Fixed => Box::new(FixedPolicy(self.config.batcher)),
            Batching::Slo(slo_s) => Box::new(SloController::for_slo(slo_s)),
            Batching::TenantBank => Box::new(ControllerBank::for_profiles(
                &self.stream.tenant_profiles,
                self.config.batcher,
            )),
        }
    }
}

/// The front-end configuration every scenario starts from. The fixed
/// policy's close conditions are a low-latency batching window; the
/// adaptive controllers start from the same point and widen it only while
/// the observed p99 holds the SLO.
fn service_config(args: &Args) -> ServiceConfig {
    ServiceConfig {
        queue_capacity: args.queue.unwrap_or(512),
        batcher: BatchFormerConfig { max_batch: 256, max_delay_s: 25e-3 },
        cache_capacity: 512,
        cache_lookup_s: 2e-6,
        slo_p99_s: None, // the stream's annotation carries the target
        // The single-tenant sweep keeps whole-batch close-order dispatch:
        // with nobody to isolate, chunking only sheds batch amortization.
        max_chunk: None,
    }
}

/// The ordered scenario list of one run; rows appear in list order.
///
/// - **single** — the single-tenant stream: every selected engine under
///   every `--policy` (replay rows), the chosen engine once (answer map), or
///   one row per `--sweep-qps` rate (threaded).
/// - **multi** — the tenant mix on the chosen engine under the fixed
///   window, one global [`SloController`] (targeting the tightest SLO in
///   the mix — the only honest choice for a tenant-blind controller), the
///   per-tenant [`ControllerBank`] with whole-batch dispatch, and the same
///   bank under priority-chunked dispatch; the threaded sweep runs the
///   chunked bank only.
/// - **failover** — the replicated deployment under the outage schedule;
///   replay rows add the SLO controller and the capacity-model autoscaler.
/// - **live-mutation** / **live-growth** — the single-tenant stream against
///   the mutating index, then the tenant mix while its last tenant's corpus
///   grows. Like failover, the replay rows run under the adaptive policy:
///   the fixed window collapses the UpANNS engine at this offered load, and
///   a collapsed row's p99 split would measure queueing, not compaction.
fn scenarios<'a>(fx: &'a Fixture) -> Vec<Scenario<'a>> {
    let (args, mode) = (fx.args, fx.mode);
    let slo_s = args.slo_ms / 1e3;
    let tightest = fx.tstream.slo_p99_s.unwrap_or(slo_s);
    let mut config = service_config(args);
    if mode == Mode::Answers {
        // The answer map must be total: widen the waiting room past every
        // stream so neither side of the twin diff sheds anything.
        let longest = fx.stream.len().max(fx.tstream.len()).max(fx.failover.len());
        config.queue_capacity = config.queue_capacity.max(longest);
    }
    let replay_rows = mode == Mode::Report;
    // The answer-map and threaded engine: the UpANNS PIM engine when
    // selected (the paper's engine is what the sweep is about), else the
    // first engine the user listed.
    let upanns = args.selected("upanns");
    let base = Scenario {
        workload: "single",
        engine: if upanns { "upanns" } else { args.engines[0].as_str() },
        work_scale: if mode == Mode::Threaded { args.work_scale } else { REPLAY_WORK_SCALE },
        reuse_engine: false,
        stream: &fx.stream,
        planned: false,
        config,
        batching: Batching::Fixed,
        live: None,
        autoscale: false,
        offered_qps: args.qps,
    };
    let mut list = Vec::new();
    match mode {
        Mode::Report => {
            for engine in KNOWN_ENGINES.into_iter().filter(|e| args.selected(e)) {
                for (i, policy) in args.policies.iter().enumerate() {
                    let batching = match policy {
                        Policy::Fixed => Batching::Fixed,
                        Policy::Adaptive => Batching::Slo(slo_s),
                    };
                    list.push(Scenario { engine, reuse_engine: i > 0, batching, ..base });
                }
            }
        }
        Mode::Answers => list.push(base),
        Mode::Threaded => list.extend(
            fx.sweep.iter().map(|(qps, stream)| Scenario { stream, offered_qps: *qps, ..base }),
        ),
    }

    let multi = Scenario {
        workload: "multi",
        stream: &fx.tstream,
        planned: true,
        offered_qps: fx.multi_offered,
        ..base
    };
    let chunked = ServiceConfig { max_chunk: Some(args.max_chunk), ..config };
    let multi_policies = match mode {
        Mode::Report if !upanns => vec![],
        Mode::Report => args
            .policies
            .iter()
            .flat_map(|policy| match policy {
                Policy::Fixed => vec![(Batching::Fixed, config)],
                Policy::Adaptive => vec![
                    (Batching::Slo(tightest), config),
                    (Batching::TenantBank, config),
                    (Batching::TenantBank, chunked),
                ],
            })
            .collect(),
        Mode::Answers => vec![(Batching::Fixed, config)],
        Mode::Threaded => vec![(Batching::TenantBank, chunked)],
    };
    for (i, (batching, config)) in multi_policies.into_iter().enumerate() {
        // The answer map's multi section continues the single section's
        // engine; the replay's multi policies share one.
        let reuse_engine = i > 0 || mode == Mode::Answers;
        list.push(Scenario { reuse_engine, batching, config, ..multi });
    }

    if args.selected("multihost") {
        list.push(Scenario {
            workload: "failover",
            engine: FAILOVER_ENGINE,
            stream: &fx.failover,
            config: ServiceConfig { max_chunk: Some(FAILOVER_MAX_CHUNK), ..config },
            batching: if replay_rows { Batching::Slo(FAILOVER_SLO_MS / 1e3) } else { Batching::Fixed },
            autoscale: replay_rows,
            offered_qps: FAILOVER_QPS,
            ..base
        });
    }
    if let Some(live) = &fx.live {
        list.push(Scenario {
            workload: if mode == Mode::Answers { "live" } else { "live-mutation" },
            batching: if replay_rows { Batching::Slo(slo_s) } else { Batching::Fixed },
            live: Some(live),
            ..base
        });
    }
    if let Some(growth) = &fx.growth {
        list.push(Scenario {
            workload: "live-growth",
            batching: Batching::Slo(tightest),
            live: Some(growth),
            ..multi
        });
    }
    list
}

/// Replays one scenario on the replay clock — on `engine` when the scenario
/// continues the previous one's engine, else on a fresh one — and returns
/// the report with the engine (the next scenario's, or the live audit's
/// oracle).
fn replay(fx: &Fixture, s: &Scenario, engine: Option<Engine>) -> (ServiceReport, Engine) {
    let engine = match engine.filter(|_| s.reuse_engine) {
        Some(engine) => engine,
        None => fx.engine(s.engine, s.work_scale),
    };
    eprintln!("replay: {} on {} ({} queries) ...", s.workload, engine.name(), s.stream.len());
    let mut service = SearchService::new(engine, s.config).with_policy(s.batch_policy());
    if let Some(live) = s.live {
        let (live_service, accepted) = service.with_live_index(&live.plan.timeline);
        assert!(accepted, "the upanns engine accepts snapshot timelines");
        service = live_service;
    }
    if s.autoscale {
        // The capacity-model fit the `capacity_planning` example runs,
        // never below the committed shape (scale-downs would change the
        // healthy baseline), two hosts of elastic headroom above it.
        let model = CapacityModel::fit(&CAPACITY_SAMPLES);
        let (hosts, max_hosts) = (FAILOVER_HOSTS, FAILOVER_HOSTS + 2);
        service = service.with_autoscaler(Autoscaler::new(model, FAILOVER_QPS, hosts, hosts, max_hosts));
    }
    let report = service.replay(s.stream, |i| s.options(i));
    (report, service.into_engine())
}

/// Runs one scenario through the threaded pipeline on `workers` fresh
/// engines, in logical-trace mode when `logical`, else on the wall clock.
fn pipeline(fx: &Fixture, s: &Scenario, workers: usize, logical: bool) -> RuntimeReport {
    let engines: Vec<Engine> = (0..workers)
        .map(|_| {
            let mut engine = fx.engine(s.engine, s.work_scale);
            if let Some(live) = s.live {
                let accepted = engine.install_timeline(live.plan.timeline.clone());
                assert!(accepted, "the upanns engine accepts snapshot timelines");
            }
            engine
        })
        .collect();
    let (mut config, clock) = if logical {
        (RuntimeConfig::logical(s.config), "logical")
    } else {
        (RuntimeConfig::wall(s.config), "wall")
    };
    if let Some(live) = s.live {
        config = config.with_epoch_schedule(live.plan.timeline.epoch_schedule());
    }
    let (workload, engine, n) = (s.workload, engines[0].name(), s.stream.len());
    eprintln!("{clock} pipeline: {workload} on {engine}, {workers} worker(s), {n} queries ...");
    let report = run_pipeline(engines, s.stream, |i| s.options(i), s.batch_policy(), config);
    assert!(report.is_conserving(), "{} run lost or duplicated queries", s.workload);
    report
}

/// The post-replay audit of a live-mutation row (see the module docs).
struct LiveSummary {
    final_epoch: u64,
    snapshots: usize,
    compactions: usize,
    mutation_events: usize,
    /// Served answers that differ from re-executing the query at its own
    /// arrival on the same engine. The consistency contract says 0.
    stale_served: usize,
    /// Completed queries whose arrival fell inside a compaction window.
    answered_in_window: usize,
    p99_steady_ms: f64,
    p99_compaction_ms: f64,
    /// The recall-vs-staleness curve: `(lag label, queries, mean recall)`
    /// per [`STALENESS_BUCKETS`] entry.
    buckets: Vec<(&'static str, usize, f64)>,
}

/// Nearest-rank p99 over unsorted millisecond latencies (0 when empty).
fn p99_ms(latencies_ms: &mut [f64]) -> f64 {
    if latencies_ms.is_empty() {
        return 0.0;
    }
    latencies_ms.sort_by(f64::total_cmp);
    let rank = ((0.99 * latencies_ms.len() as f64).ceil() as usize).max(1) - 1;
    latencies_ms[rank.min(latencies_ms.len() - 1)]
}

/// Audits a live-mutation replay after the fact:
///
/// - **stale_served** — every completed answer is re-executed as a
///   single-query request at its own arrival time on `oracle` (the engine
///   that served the replay, timeline still installed). Answers are a pure
///   function of (query, arrival), so any difference means a stale cache
///   entry or a wrong snapshot was served. Must be 0.
/// - **p99 split** — completed latencies split by whether the arrival fell
///   inside a compaction window (the stall the plan charges).
/// - **recall-vs-staleness** — a [`MutableIvf`] replays the mutation events
///   alongside the arrivals, so each query's served ids are scored against
///   an exact search of the *up-to-the-second* corpus; buckets group by how
///   many mutations the serving snapshot trailed by.
fn live_summary(
    report: &ServiceReport,
    oracle: &mut Engine,
    base: &IvfPqIndex,
    s: &Scenario,
    live: &LiveRun,
) -> LiveSummary {
    let (stream, events, plan) = (s.stream, &live.events, &live.plan);
    let mut steady_ms: Vec<f64> = Vec::new();
    let mut window_ms: Vec<f64> = Vec::new();
    for &(arrival, latency) in &report.outcomes {
        let Some(latency) = latency else { continue };
        if plan.timeline.windows().iter().any(|w| w.contains(arrival)) {
            window_ms.push(latency * 1e3);
        } else {
            steady_ms.push(latency * 1e3);
        }
    }
    let answered_in_window = window_ms.len();

    // The exact-corpus twin of the timeline: same base, same events, but
    // refreshed at *every* event instead of every LIVE_REFRESH_S.
    let mut exact = MutableIvf::new(base);
    let mut next_event = 0usize;
    let mut stale_served = 0usize;
    let mut buckets: Vec<(usize, f64)> = vec![(0, 0.0); STALENESS_BUCKETS.len()];
    for (i, &arrival) in stream.arrivals.iter().enumerate() {
        while next_event < events.events.len() && events.events[next_event].at <= arrival {
            match &events.events[next_event].op {
                MutationOp::Upsert { id, vector } => exact.upsert(vector, *id),
                MutationOp::Delete { id } => _ = exact.delete(*id),
            }
            next_event += 1;
        }
        let served = &report.results[i];
        if served.is_empty() {
            continue; // shed
        }
        let opt = s.options(i);
        let request = SearchRequest::new(stream.batch.queries.gather(&[i]), vec![opt]);
        let expect = oracle.execute(&request.with_at(arrival)).results;
        if !served.iter().map(|n| n.id).eq(expect[0].iter().map(|n| n.id)) {
            stale_served += 1;
        }

        let query = stream.batch.queries.vector(i);
        let exact_ids: std::collections::HashSet<u64> =
            exact.snapshot().search(query, opt.nprobe, opt.k).iter().map(|n| n.id).collect();
        let recall = if exact_ids.is_empty() {
            1.0
        } else {
            served.iter().filter(|n| exact_ids.contains(&n.id)).count() as f64
                / exact_ids.len() as f64
        };
        let lag = exact.epoch() - plan.timeline.epoch_at(arrival);
        let bucket = STALENESS_BUCKETS
            .iter()
            .position(|&(_, lo, hi)| lo <= lag && lag <= hi)
            .expect("staleness buckets cover all lags");
        buckets[bucket].0 += 1;
        buckets[bucket].1 += recall;
    }

    LiveSummary {
        final_epoch: plan.final_epoch,
        snapshots: plan.timeline.entries().len(),
        compactions: plan.compactions.len(),
        mutation_events: events.len(),
        stale_served,
        answered_in_window,
        p99_steady_ms: p99_ms(&mut steady_ms),
        p99_compaction_ms: p99_ms(&mut window_ms),
        buckets: STALENESS_BUCKETS
            .iter()
            .zip(buckets)
            .map(|(&(label, _, _), (queries, recall_sum))| {
                (label, queries, if queries == 0 { 1.0 } else { recall_sum / queries as f64 })
            })
            .collect(),
    }
}

/// How a JSON container is laid out: `Block` puts each member on its own
/// indented line (records, rows, tenants), `Inline` keeps the whole
/// container on one line (`envelope`, `live`, config lists).
#[derive(Clone, Copy)]
enum Layout {
    Block,
    Inline,
}

/// A JSON value with ordered object keys — the one writer behind both
/// bench records. Build objects with `obj!`; values convert with `From`.
enum Json {
    /// A number, boolean, `null` or already-quoted string.
    Lit(String),
    Arr(Layout, Vec<Json>),
    Obj(Layout, Vec<(&'static str, Json)>),
}

/// An ordered JSON object: `obj!(Block; "key" => value, ...)`.
macro_rules! obj {
    ($layout:ident; $($key:expr => $value:expr),* $(,)?) => {
        Json::Obj(Layout::$layout, vec![$(($key, Json::from($value))),*])
    };
}

/// Integers and booleans print as themselves.
macro_rules! json_literals {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Self {
                Json::Lit(x.to_string())
            }
        }
    )*};
}
json_literals!(usize, u64, u32, bool);

impl From<f64> for Json {
    /// Six decimals; non-finite values (which JSON cannot carry) as `0.0`.
    fn from(x: f64) -> Self {
        Json::Lit(if x.is_finite() { format!("{x:.6}") } else { "0.0".to_string() })
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Lit(format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    /// `null` for `None`.
    fn from(x: Option<T>) -> Self {
        x.map_or_else(|| Json::Lit("null".to_string()), Into::into)
    }
}

impl Json {
    /// Appends the value; `indent` is the column of the line it starts on.
    fn render(&self, indent: usize, out: &mut String) {
        let (layout, [open, close], members): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Lit(text) => return out.push_str(text),
            Json::Arr(layout, items) => (*layout, ["[", "]"], items.iter().map(|v| (None, v)).collect()),
            Json::Obj(layout, fields) => {
                (*layout, ["{", "}"], fields.iter().map(|(k, v)| (Some(*k), v)).collect())
            }
        };
        let (start, pad, sep, end) = match (layout, self) {
            (Layout::Block, _) => ("\n", " ".repeat(indent + 2), ",\n", format!("\n{}", " ".repeat(indent))),
            (Layout::Inline, Json::Obj(..)) => (" ", String::new(), ", ", " ".to_string()),
            (Layout::Inline, _) => ("", String::new(), ", ", String::new()),
        };
        out.push_str(open);
        out.push_str(start);
        for (i, (key, value)) in members.into_iter().enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            out.push_str(&pad);
            if let Some(key) = key {
                out.push_str(&format!("\"{key}\": "));
            }
            value.render(indent + 2, out);
        }
        out.push_str(&end);
        out.push_str(close);
    }
}

/// Writes a record: `schema`, the shared `config` block, then its rows.
/// The threaded record's config lists its worker counts and sweep rates,
/// the replay record's its stream, host count and snapshot refresh cadence.
fn write_record(fx: &Fixture, path: &str, rows: Vec<Json>) {
    let (args, threaded) = (fx.args, fx.mode == Mode::Threaded);
    let config = service_config(args);
    let mut fields = vec![
        ("dataset_n", Json::from(DATASET_N)),
        ("nlist", Json::from(NLIST)),
        ("dpus", Json::from(DPUS)),
    ];
    if threaded {
        let workers = args.workers.iter().map(|&w| Json::from(w)).collect();
        let sweep = args.sweep_qps.iter().map(|&q| Json::from(q)).collect();
        fields.push(("work_scale", Json::from(args.work_scale)));
        fields.push(("workers", Json::Arr(Layout::Inline, workers)));
        fields.push(("sweep_qps", Json::Arr(Layout::Inline, sweep)));
    } else {
        fields.push(("work_scale", Json::from(REPLAY_WORK_SCALE)));
        fields.push(("num_queries", Json::from(args.queries)));
        fields.push(("offered_qps", Json::from(args.qps)));
    }
    fields.push(("repeat_fraction", Json::from(args.repeat)));
    fields.push(("slo_p99_ms", Json::from(args.slo_ms)));
    if !threaded {
        fields.push(("hosts", Json::from(args.hosts)));
    }
    fields.extend([
        ("max_chunk", Json::from(args.max_chunk)),
        ("queue_capacity", config.queue_capacity.into()),
        ("fixed_max_batch", config.batcher.max_batch.into()),
        ("fixed_max_delay_ms", (config.batcher.max_delay_s * 1e3).into()),
        ("cache_capacity", config.cache_capacity.into()),
        ("replicas", args.replicas.into()),
        ("fault", args.fault.as_str().into()),
        ("hedge_ms", args.hedge_ms.into()),
        ("mutations", args.mutations.as_str().into()),
    ]);
    if !threaded {
        fields.push(("live_refresh_s", Json::from(LIVE_REFRESH_S)));
    }
    fields.push(("tenants", Json::from(fx.tenants.as_str())));
    let (schema, rows_key) = if threaded {
        ("upanns-runtime-bench-v3", "rows")
    } else {
        ("upanns-serving-bench-v6", "engines")
    };
    let doc = obj!(Block;
        "schema" => schema,
        "config" => Json::Obj(Layout::Block, fields),
        rows_key => Json::Arr(Layout::Block, rows),
    );
    let mut out = String::new();
    doc.render(0, &mut out);
    out.push('\n');
    std::fs::write(path, out).expect("write JSON record");
    eprintln!("wrote {path}");
}

/// Serves every scenario for its answers — on the replay clock, or through
/// the twin pipeline on `--workers`' first count — and writes the map as
/// `workload TAB index TAB id,id,...` lines, the byte format CI diffs
/// between `--runtime replay` and `--runtime twin`. Only neighbor ids
/// appear: the twin contract is about *which* answers come back, and ids
/// are byte-stable across platforms where float formatting might not be.
fn answer_map(fx: &Fixture, list: &[Scenario]) {
    let mut engine = None;
    let mut out = String::new();
    let mut answered = 0;
    for s in list {
        let results = if fx.args.runtime == RuntimeKind::Twin {
            let report = pipeline(fx, s, fx.args.workers[0], true);
            assert_eq!(report.shed, 0, "twin runs shed nothing");
            report.results
        } else {
            let (report, used) = replay(fx, s, engine.take());
            engine = Some(used);
            report.results
        };
        answered += results.len();
        for (i, neighbors) in results.iter().enumerate() {
            let ids: Vec<String> = neighbors.iter().map(|n| n.id.to_string()).collect();
            out.push_str(&format!("{}\t{i}\t{}\n", s.workload, ids.join(",")));
        }
    }
    match &fx.args.answers {
        Some(path) => {
            std::fs::write(path, out).expect("write answers file");
            eprintln!("wrote {path}");
        }
        None => eprintln!(
            "twin run complete ({answered} answers, all conserved); \
             use --answers PATH to write the map"
        ),
    }
}

/// Prints a markdown table header for `|`-separated column names.
fn table_header(columns: &str) {
    println!("| {columns} |");
    println!("|{}", "---|".repeat(columns.split(" | ").count()));
}

/// The threaded sweep: every scenario at every worker count, printed as a
/// table and written as `upanns-runtime-bench-v3`. The wall-clock numbers
/// are machine-dependent; [`pipeline`] asserts conservation per row.
fn threaded(fx: &Fixture, list: &[Scenario]) {
    let mut rows: Vec<(&Scenario, RuntimeReport)> = Vec::new();
    for &workers in &fx.args.workers {
        for s in list {
            // Fault schedules and epoch visibility live on the simulated
            // clock, so failover and live rows run in logical mode.
            let logical = s.workload == "failover" || s.live.is_some();
            rows.push((s, pipeline(fx, s, workers, logical)));
        }
    }
    table_header(
        "engine | workload | mode | workers | offered QPS | sustained QPS | p50 (ms) | p99 (ms) \
         | completed | shed | lost | dup | cache hit",
    );
    for (s, r) in &rows {
        println!(
            "| {} | {} | {} | {} | {:.1} | {:.1} | {:.3} | {:.3} | {} | {} | {} | {} | {:.0}% |",
            r.engine, s.workload, r.mode, r.workers, s.offered_qps, r.sustained_qps(),
            r.p50() * 1e3, r.p99() * 1e3, r.completed, r.shed, r.lost, r.duplicated,
            r.cache_hit_rate() * 100.0,
        );
    }
    let Some(path) = &fx.args.json else { return };
    let rows = rows.iter().map(|(s, r)| {
        // Non-finite (a run without makespan) writes as 0.
        let emulated_utilization = r.busy_modeled_s / (r.makespan_s * r.workers as f64);
        let tenants = r.tenants.iter().map(|t| {
            obj!(Block;
                "tenant" => t.name.as_str(), "slo_ms" => t.slo_p99_s.map(|s| s * 1e3),
                "completed" => t.completed, "shed" => t.shed,
                "p50_ms" => t.p50() * 1e3, "p99_ms" => t.p99() * 1e3,
                "slo_miss_fraction" => t.slo_miss_fraction(), "meets_slo" => t.meets_slo(),
            )
        });
        obj!(Block;
            "engine" => r.engine.as_str(), "workload" => s.workload, "mode" => r.mode,
            "policy" => r.policy.as_str(), "workers" => r.workers, "offered_qps" => s.offered_qps,
            "num_queries" => s.stream.len(), "sustained_qps" => r.sustained_qps(),
            "p50_ms" => r.p50() * 1e3, "p99_ms" => r.p99() * 1e3,
            "mean_ms" => r.mean_latency() * 1e3,
            "completed" => r.completed, "shed" => r.shed, "lost" => r.lost,
            "duplicated" => r.duplicated, "degraded" => r.degraded, "hedged" => r.hedged,
            "redispatched" => r.redispatched, "cache_hit_rate" => r.cache_hit_rate(),
            "cache_invalidated" => r.cache_invalidated,
            "dispatched_chunks" => r.dispatched_chunks, "busy_modeled_s" => r.busy_modeled_s,
            "makespan_s" => r.makespan_s, "emulated_utilization" => emulated_utilization,
            "tenants" => Json::Arr(Layout::Block, tenants.collect()),
        )
    });
    write_record(fx, path, rows.collect());
}

/// One replay row of the serving record.
struct ReplayRow {
    workload: &'static str,
    report: ServiceReport,
    /// The recovery envelope (failover rows only).
    envelope: Option<RecoveryEnvelope>,
    /// The live-index audit (live rows only).
    live: Option<LiveSummary>,
}

impl ReplayRow {
    fn json(&self) -> Json {
        let r = &self.report;
        let tenants = r.tenants.iter().map(|t| {
            obj!(Block;
                "tenant" => t.name.as_str(), "weight" => t.weight,
                "slo_ms" => t.slo_p99_s.map(|s| s * 1e3),
                "completed" => t.completed, "shed" => t.shed,
                "p50_ms" => t.p50() * 1e3, "p99_ms" => t.p99() * 1e3,
                "slo_miss_fraction" => t.slo_miss_fraction(), "meets_slo" => t.meets_slo(),
                "final_max_batch" => t.final_batcher.max_batch,
                "final_max_delay_ms" => t.final_batcher.max_delay_s * 1e3,
            )
        });
        // `recovery_s` is null when attainment never recovered inside the
        // observed timeline.
        let envelope = self.envelope.as_ref().map(|e| {
            obj!(Inline;
                "bucket_s" => e.bucket_s, "t_down" => e.t_down,
                "baseline_attainment" => e.baseline_attainment, "max_dip" => e.max_dip,
                "dip_at" => e.dip_at, "recovery_s" => e.recovery_s.is_finite().then_some(e.recovery_s),
                "recovered" => e.recovered,
            )
        });
        let live = self.live.as_ref().map(|s| {
            let buckets = s.buckets.iter().map(|&(lag, queries, mean_recall)| {
                obj!(Inline; "lag" => lag, "queries" => queries, "mean_recall" => mean_recall)
            });
            obj!(Inline;
                "final_epoch" => s.final_epoch, "snapshots" => s.snapshots,
                "compactions" => s.compactions, "mutation_events" => s.mutation_events,
                "stale_served" => s.stale_served, "answered_in_window" => s.answered_in_window,
                "p99_steady_ms" => s.p99_steady_ms, "p99_compaction_ms" => s.p99_compaction_ms,
                "recall_vs_staleness" => Json::Arr(Layout::Inline, buckets.collect()),
            )
        });
        obj!(Block;
            "name" => r.engine.as_str(), "workload" => self.workload, "policy" => r.policy.as_str(),
            "sustained_qps" => r.sustained_qps(), "p50_ms" => r.p50() * 1e3,
            "p99_ms" => r.p99() * 1e3, "mean_ms" => r.mean_latency() * 1e3,
            "slo_miss_fraction" => r.slo_miss_fraction(), "meets_slo" => r.meets_slo(),
            "all_tenants_meet_slo" => r.all_tenants_meet_slo(),
            "completed" => r.completed, "shed" => r.shed,
            "cache_hit_rate" => r.cache_hit_rate(), "cache_invalidated" => r.cache_invalidated,
            "batches" => r.batches(), "mean_batch_size" => r.mean_batch_size(),
            "dispatched_chunks" => r.dispatched_chunks, "mean_chunk_size" => r.mean_chunk_size(),
            "final_max_batch" => r.final_batcher.max_batch,
            "final_max_delay_ms" => r.final_batcher.max_delay_s * 1e3,
            "controller_adjustments" => r.controller_adjustments,
            "engine_busy_s" => r.engine_busy_s,
            "degraded" => r.degraded, "hedged" => r.hedged, "redispatched" => r.redispatched,
            "scale_events" => r.scale_events, "migration_s" => r.migration_s,
            "envelope" => envelope, "live" => live,
            "tenants" => Json::Arr(Layout::Block, tenants.collect()),
        )
    }
}

/// The replay report: every scenario's row, the failover row's recovery
/// envelope and the live rows' audits, printed as tables and written as
/// `upanns-serving-bench-v6`.
fn report(fx: &Fixture, list: &[Scenario]) {
    let args = fx.args;
    let mut engine = None;
    let mut rows = Vec::new();
    for s in list {
        let (report, mut used) = replay(fx, s, engine.take());
        let envelope = match s.workload {
            "failover" => {
                let t_down = fx.faults.events().iter().map(|e| e.down_at).fold(f64::INFINITY, f64::min);
                let slo_s = FAILOVER_SLO_MS / 1e3;
                RecoveryEnvelope::from_outcomes(&report.outcomes, slo_s, t_down, ENVELOPE_BUCKET_S)
            }
            _ => None,
        };
        let live = s.live.map(|live| {
            let summary = live_summary(&report, &mut used, &fx.index, s, live);
            assert_eq!(
                summary.stale_served, 0,
                "{} replay served answers that differ from their arrival snapshot",
                s.workload
            );
            summary
        });
        engine = Some(used);
        rows.push(ReplayRow { workload: s.workload, report, envelope, live });
    }
    let of = |workload: &'static str| rows.iter().filter(move |r| r.workload == workload);

    table_header(
        "engine | policy | sustained QPS | p50 (ms) | p99 (ms) | SLO miss | completed | shed \
         | batches | chunks | mean batch | final window (ms)",
    );
    for ReplayRow { report: r, .. } in of("single") {
        println!(
            "| {} | {} | {:.1} | {:.3} | {:.3} | {:.1}% | {} | {} | {} | {} | {:.1} | {:.1} |",
            r.engine, r.policy, r.sustained_qps(), r.p50() * 1e3, r.p99() * 1e3,
            r.slo_miss_fraction() * 100.0, r.completed, r.shed, r.batches(),
            r.dispatched_chunks, r.mean_batch_size(), r.final_batcher.max_delay_s * 1e3,
        );
    }

    if of("multi").next().is_some() {
        println!("\nMulti-tenant scenario (upanns): {}", fx.tenants);
        table_header(
            "policy | tenant | weight | SLO (ms) | completed | shed | p50 (ms) | p99 (ms) \
             | SLO miss | meets | final window (ms)",
        );
        for ReplayRow { report: r, .. } in of("multi") {
            for t in &r.tenants {
                println!(
                    "| {} | {} | {} | {} | {} | {} | {:.3} | {:.3} | {:.1}% | {} | {:.1} |",
                    r.policy, t.name, t.weight,
                    t.slo_p99_s.map_or_else(|| "-".to_string(), |s| format!("{:.0}", s * 1e3)),
                    t.completed, t.shed, t.p50() * 1e3, t.p99() * 1e3,
                    t.slo_miss_fraction() * 100.0, if t.meets_slo() { "yes" } else { "NO" },
                    t.final_batcher.max_delay_s * 1e3,
                );
            }
        }
    }

    if of("failover").next().is_some() {
        println!(
            "\nFailover scenario: {FAILOVER_SHARDS} shards / {FAILOVER_HOSTS} hosts, r={}, \
             fault {}, hedge {} ms",
            args.replicas, args.fault, args.hedge_ms
        );
        table_header(
            "policy | sustained QPS | p99 (ms) | SLO miss | degraded | hedged | redisp \
             | scale events | migration (s) | baseline | max dip | recovery (s)",
        );
        for ReplayRow { report: r, envelope, .. } in of("failover") {
            let envelope = envelope.as_ref().map_or_else(
                || "- | - | -".to_string(),
                |e| {
                    let recovery = if e.recovered {
                        format!("{:.1}", e.recovery_s)
                    } else {
                        "never".to_string()
                    };
                    format!("{:.3} | {:.3} | {recovery}", e.baseline_attainment, e.max_dip)
                },
            );
            println!(
                "| {} | {:.1} | {:.3} | {:.1}% | {} | {} | {} | {} | {:.3} | {envelope} |",
                r.policy, r.sustained_qps(), r.p99() * 1e3, r.slo_miss_fraction() * 100.0,
                r.degraded, r.hedged, r.redispatched, r.scale_events, r.migration_s,
            );
        }
    }

    if rows.iter().any(|r| r.live.is_some()) {
        println!(
            "\nLive-mutation scenario (upanns): {} (snapshot refresh every {} s)",
            args.mutations, LIVE_REFRESH_S
        );
        table_header(
            "workload | events | epochs | compactions | invalidated | stale | in-window \
             | p99 steady (ms) | p99 compaction (ms) | recall lag=0 | lag=1-10 | lag=11-100 | lag=101+",
        );
        for row in &rows {
            let Some(s) = &row.live else { continue };
            let recalls: Vec<String> = s
                .buckets
                .iter()
                .map(|&(_, queries, recall)| match queries {
                    0 => "-".to_string(),
                    n => format!("{recall:.3} ({n})"),
                })
                .collect();
            println!(
                "| {} | {} | {} | {} | {} | {} | {} | {:.3} | {:.3} | {} |",
                row.workload, s.mutation_events, s.final_epoch, s.compactions,
                row.report.cache_invalidated, s.stale_served, s.answered_in_window,
                s.p99_steady_ms, s.p99_compaction_ms, recalls.join(" | "),
            );
        }
    }

    if let Some(path) = &args.json {
        write_record(fx, path, rows.iter().map(ReplayRow::json).collect());
    }
}

fn main() {
    let args = parse_args();
    assert!(args.slo_ms > 0.0, "--slo-ms must be positive");
    let mode = match (args.runtime, &args.answers) {
        (RuntimeKind::Threaded, _) => Mode::Threaded,
        (RuntimeKind::Twin, _) | (RuntimeKind::Replay, Some(_)) => Mode::Answers,
        (RuntimeKind::Replay, None) => Mode::Report,
    };
    eprintln!(
        "building fixture: n={DATASET_N}, nlist={NLIST}, dpus={DPUS}, \
         stream of {} queries at {} qps (repeat fraction {}, p99 SLO {} ms)",
        args.queries, args.qps, args.repeat, args.slo_ms
    );
    let fx = Fixture::build(&args, mode);
    let list = scenarios(&fx);
    match mode {
        Mode::Report => report(&fx, &list),
        Mode::Answers => answer_map(&fx, &list),
        Mode::Threaded => threaded(&fx, &list),
    }
}
