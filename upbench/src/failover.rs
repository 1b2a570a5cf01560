//! `failover`: kill-a-host on the replay clock. A replicated deployment
//! (`ReplicatedMultiHost`: 3 shards on 3 hosts, 2 replicas each) serves a
//! Poisson stream through `SearchService::replay` while host 1 is down for
//! part of it, with hedged retries, an SLO controller and a capacity-model
//! autoscaler in the loop. It is the only workload that runs the replica
//! layer's broadcast, gather and merge stages.
//!
//! Latency here is modeled (replay clock). No query may lose shard
//! coverage (`degraded` must stay 0), and recall is scored against exact
//! search over the whole corpus.

use std::sync::{Arc, Mutex};

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::vector::Dataset;
use annkit::workload::{QueryStream, StreamSpec, WorkloadSpec};
use baselines::engine::AnnEngine;
use upanns::builder::BatchCapacity;
use upanns::engine::UpAnnsEngine;
use upanns::multihost::{shard_ranges, InterconnectModel};
use upanns::replica::{FaultSchedule, ReplicatedMultiHost};
use upanns_serve::{
    Autoscaler, CapacityModel, RecoveryEnvelope, SearchService, ServiceReport, SloController,
};

use crate::clock::Stopwatch;
use crate::common::{
    build_upanns, corpus, history, mean_recall, options_of, record_engine, record_service,
    same_replay, service_config, untraced_pass, FastestPass, Run, Setup, TRAIN_SEED,
};
use crate::metrics::{median, percentile, ratio, Record};
use crate::probe::{take, Probe, SharedTally, Tally};

const N: usize = 4_000;
const NLIST: usize = 512;
const DPUS: usize = 896;
const MODELED_N: f64 = 1.25e8;
const SHARDS: usize = 3;
const HOSTS: usize = 3;
const REPLICAS: usize = 2;
/// ~50 s of arrivals: a healthy baseline, an 18 s outage of host 1 that
/// the two survivors absorb with hedging and redispatch, and a recovery
/// tail. The rate stays below the survivors' capacity: near it, whether
/// the autoscaler fires at all varies from stream to stream and the tail
/// with it.
const QUERIES: usize = 800;
const QPS: f64 = 16.0;
const FAULT: &str = "1@12..30";
/// Distinct streams per run, pooled: one outage's tail depends on the
/// arrivals around it.
const STREAMS: u64 = 4;
const HEDGE_S: f64 = 0.4;
const SLO_S: f64 = 2.5;
const MAX_CHUNK: usize = 8;
const REPEAT: f64 = 0.25;
/// Recovery-envelope bucket width, seconds.
const BUCKET_S: f64 = 5.0;
/// `(hosts, sustained QPS)` samples of the autoscaler's capacity model.
const CAPACITY_SAMPLES: [(f64, f64); 4] = [(1.0, 5.8), (2.0, 11.2), (3.0, 16.4), (4.0, 21.3)];
const RECALL_STRIDE: usize = 2;
const RECALL_FLOOR: f64 = 0.35;

/// One shard's index over a contiguous slice of the corpus, with global
/// row ids.
fn shard_index(data: &Dataset, range: std::ops::Range<usize>, nlist: usize) -> IvfPqIndex {
    let rows: Vec<usize> = range.clone().collect();
    let shard = data.gather(&rows);
    let mut index = IvfPqIndex::train_empty(
        &shard,
        &IvfPqParams::new((nlist / SHARDS).max(16), 16).with_train_size(2_400 / SHARDS),
        TRAIN_SEED,
    );
    index.add(&shard, range.start as u64);
    index
}

/// Everything one deployment is built from; the deployment itself is
/// rebuilt for every replay, since autoscaling resizes it.
struct Fixture {
    data: annkit::synthetic::SyntheticDataset,
    history: Dataset,
    shards: Vec<IvfPqIndex>,
    streams: Vec<QueryStream>,
    work_scale: f64,
}

fn deployment(f: &Fixture) -> ReplicatedMultiHost {
    let capacity = BatchCapacity {
        batch_size: 64,
        nprobe: 8,
        max_k: 20,
    };
    let engines: Vec<UpAnnsEngine> = f
        .shards
        .iter()
        .map(|ix| build_upanns(ix, DPUS / SHARDS, f.work_scale, &f.history, &capacity))
        .collect();
    ReplicatedMultiHost::new(engines, HOSTS, REPLICAS, InterconnectModel::default())
        .expect("3 hosts hold 3 shards at 2 replicas")
        .with_faults(FaultSchedule::parse(FAULT).expect("the fault schedule parses"))
        .with_hedge_budget(HEDGE_S)
}

/// Replays stream `i` on a fresh deployment; returns the report, the
/// replay call's host seconds and the deployment's peak watts.
fn replay(
    run: &Run,
    f: &Fixture,
    i: usize,
    tally: &SharedTally,
    label: &str,
) -> (ServiceReport, f64, f64) {
    let mut engine = deployment(f);
    let probe = Probe::new(&mut engine, tally.clone(), run.tracer.clone());
    let scaler = Autoscaler::new(
        CapacityModel::fit(&CAPACITY_SAMPLES),
        QPS,
        HOSTS,
        HOSTS,
        HOSTS + 2,
    );
    let mut service = SearchService::new(probe, service_config(Some(MAX_CHUNK)))
        .with_policy(Box::new(SloController::for_slo(SLO_S)))
        .with_autoscaler(scaler);
    let clock = Stopwatch::start();
    let report = run.workload_span(label, || service.replay(&f.streams[i], options_of));
    (
        report,
        clock.elapsed_s(),
        service.engine().energy_model().peak_watts,
    )
}

pub fn run(run: &Run, rec: &mut Record) {
    let n = run.size(N, 2_000);
    let nlist = run.size(NLIST, 192);
    let queries = run.size(QUERIES, 400);
    let (fixture, setup) = Setup::repeat(run, |s| {
        let (data, history, streams) = s.phase("data", || {
            let data = corpus(n);
            let history = history(&data);
            let streams = (0..STREAMS)
                .map(|i| {
                    StreamSpec::new(queries, QPS)
                        .with_workload(WorkloadSpec::new(queries).with_seed(run.seed_for(60 + i)))
                        .with_repeat_fraction(REPEAT)
                        .with_slo_p99(SLO_S)
                        .generate(&data)
                })
                .collect();
            (data, history, streams)
        });
        let shards = s.phase("train", || {
            shard_ranges(n, SHARDS)
                .into_iter()
                .map(|r| shard_index(&data.vectors, r, nlist))
                .collect()
        });
        let fixture = Fixture {
            data,
            history,
            shards,
            streams,
            work_scale: MODELED_N / n as f64,
        };
        drop(s.phase("build", || deployment(&fixture)));
        fixture
    });
    setup.record(rec);

    let tally = Arc::new(Mutex::new(Tally::default()));
    let plain_s = untraced_pass(run, || {
        let (_, host_s, _) = replay(run, &fixture, 0, &tally, "failover.untraced");
        take(&tally);
        host_s
    });

    // One replay of each stream gives its modeled numbers; the rest of the
    // run cycles the streams on fresh deployments, and each repeat must
    // agree bit for bit with its stream's first replay.
    let mut firsts: Vec<(ServiceReport, f64, Tally)> = Vec::new();
    let mut peak_watts = 0.0;
    for i in 0..fixture.streams.len() {
        let (report, host_s, watts) = replay(run, &fixture, i, &tally, "failover.replay");
        firsts.push((report, host_s, take(&tally)));
        peak_watts = watts;
    }
    // Host rate from the fastest parts of each stream's replays.
    let mut fastest: Vec<FastestPass> = firsts
        .iter()
        .map(|(_, host_s, t)| {
            let mut f = FastestPass::default();
            f.add(&t.call_host_s, host_s - t.host_s);
            f
        })
        .collect();
    let clock = Stopwatch::start();
    let mut drifted = 0u64;
    // Replays of each stream, its first included.
    let mut replays = vec![1u64; fixture.streams.len()];
    let mut i = 0;
    while i == 0 || clock.elapsed_s() < run.seconds {
        let k = i % fixture.streams.len();
        let (again, host_s, _) = replay(run, &fixture, k, &tally, "failover.replay");
        if !same_replay(&firsts[k].0, &again) {
            drifted += fixture.streams[k].len() as u64;
        }
        let t = take(&tally);
        fastest[k].add(&t.call_host_s, host_s - t.host_s);
        replays[k] += 1;
        i += 1;
    }

    rec.attempted = fixture
        .streams
        .iter()
        .zip(&replays)
        .map(|(s, n)| s.len() as u64 * n)
        .sum();
    rec.check(drifted == 0, || {
        format!("{drifted} queries replayed differently from their stream's first replay")
    });
    let mut recall_sum = 0.0;
    let mut scored = 0usize;
    for (((report, _, _), stream), &times) in firsts.iter().zip(&fixture.streams).zip(&replays) {
        rec.check(report.completed + report.shed == stream.len(), || {
            format!(
                "completed {} + shed {} != offered {}",
                report.completed,
                report.shed,
                stream.len()
            )
        });
        rec.check(report.degraded == 0, || {
            format!("{} query-shard pairs lost coverage", report.degraded)
        });
        // Every repeat reproduces its stream's first replay, shed included.
        rec.failed += (report.shed as u64 + report.degraded) * times;
        let (r, n) = mean_recall(
            &fixture.data.vectors,
            &stream.batch.queries,
            &report.results,
            |i| options_of(i).k,
            RECALL_STRIDE,
        );
        recall_sum += r * n as f64;
        scored += n;
    }
    rec.failed += drifted;

    let modeled_qps: Vec<f64> = firsts
        .iter()
        .map(|(_, _, t)| ratio(t.queries as f64, t.modeled_s))
        .collect();
    let offered: usize = fixture.streams.iter().map(QueryStream::len).sum();
    let host_s: f64 = fastest.iter().map(FastestPass::host_s).sum();
    rec.set("run.host_qps", ratio(offered as f64, host_s));
    rec.set("modeled_qps", median(&modeled_qps));
    let pooled: Vec<f64> = firsts
        .iter()
        .flat_map(|(r, _, _)| r.latencies_s.iter().map(|l| l * 1e3))
        .collect();
    rec.set("p50_ms", percentile(&pooled, 50.0));
    rec.set("p99_ms", percentile(&pooled, 99.0));
    let recall = ratio(recall_sum, scored as f64);
    rec.set("recall_at_k", recall);
    rec.check(recall >= RECALL_FLOOR, || {
        format!("recall {recall:.3} is below {RECALL_FLOOR}")
    });

    // Per-layer figures describe the first stream's replay.
    let (first, first_s, pass) = &firsts[0];
    if let Some(plain_s) = plain_s {
        rec.set("trace.overhead", ratio(*first_s, plain_s) - 1.0);
    }
    record_engine(rec, pass, peak_watts);
    record_service(rec, first, &fixture.streams[0], first_s - pass.host_s);
    rec.set("replica.hedged", first.hedged as f64);
    rec.set("replica.redispatched", first.redispatched as f64);
    rec.set("replica.degraded", first.degraded as f64);
    rec.set("replica.scale_events", first.scale_events as f64);
    rec.set("replica.migration_s", first.migration_s);
    let t_down = FaultSchedule::parse(FAULT)
        .expect("the fault schedule parses")
        .events()
        .iter()
        .map(|e| e.down_at)
        .fold(f64::INFINITY, f64::min);
    if let Some(envelope) =
        RecoveryEnvelope::from_outcomes(&first.outcomes, SLO_S, t_down, BUCKET_S)
    {
        rec.set("replica.recovery_s", envelope.recovery_s);
        rec.set("envelope.baseline", envelope.baseline_attainment);
        rec.set("envelope.max_dip", envelope.max_dip);
    }
}
