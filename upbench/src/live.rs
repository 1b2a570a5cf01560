//! `live-tenants`: the two-tenant head-of-line mix on the replay clock — a
//! tight low-rate tenant beside a loose bulk tenant — through
//! `replay_planned` under a per-tenant `ControllerBank` with chunked
//! dispatch, while a seeded upsert stream grows the bulk tenant's corpus.
//! `plan_live_index` folds the stream into a snapshot timeline, installed
//! with `SearchService::with_live_index`.
//!
//! Latency here is modeled (replay clock). Every answer must equal the
//! search of the snapshot active at the query's own arrival, and recall is
//! scored against exact search over the corpus as it stood at that arrival.
//!
//! The measured stream has no deletes: a delete that empties an inverted
//! list makes the UpANNS engine panic when a query probes that list ("DPU …
//! was assigned cluster … it does not host", `crates/core/src/kernel.rs`).
//! After the measured phase, every run replays the same tenant mix once
//! more with deletes in the mutation stream. A panic there is caught and
//! counted (`compaction.delete_panics`, and the panic message on standard
//! error); a replay that completes is checked like the measured one, so the
//! tombstone and delete-fold paths are checked whenever they can run.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use annkit::distance::l2_squared;
use annkit::mutation::SnapshotTimeline;
use annkit::recall::recall_at_k;
use annkit::topk::{Neighbor, TopK};
use annkit::workload::{
    MultiTenantSpec, MutationOp, MutationSpec, MutationStream, QueryStream, StreamSpec, TenantId,
    TenantSpec, WorkloadSpec,
};
use baselines::engine::AnnEngine;
use upanns::builder::BatchCapacity;
use upanns::compaction::{plan_live_index, CompactionPolicy};
use upanns::engine::UpAnnsEngine;
use upanns_serve::{ControllerBank, SearchService, ServiceReport};

use crate::clock::Stopwatch;
use crate::common::{
    build_upanns, corpus, history, record_builder, record_engine, record_service, same_answer,
    same_replay, service_config, train, FastestPass, Run, Setup,
};
use crate::metrics::{ratio, Record};
use crate::probe::{take, Probe, Tally};

const N: usize = 4_000;
const NLIST: usize = 512;
/// Fewer DPUs than the other serve-fixture workloads: every snapshot in the
/// timeline carries its own staged copy of the index on every DPU.
const DPUS: usize = 256;
/// Modeled corpus size: projects each list to the billion-scale list size.
const MODELED_N: f64 = 1.25e8;
const TIGHT: TenantId = TenantId(1);
const BULK: TenantId = TenantId(2);
/// Queries per tenant; the bulk tenant's rate sets a ~40 s arrival window.
const TIGHT_QUERIES: usize = 80;
const BULK_QUERIES: usize = 720;
/// Upserts per replay-clock second into the bulk tenant's corpus while it
/// is served.
const UPSERT_QPS: f64 = 40.0;
/// Deletes per replay-clock second in the delete replay.
const DELETE_QPS: f64 = 8.0;
/// The mutation stream's length: fixed, so every seed installs the same
/// number of snapshots (the bulk tenant's nominal arrival window).
const MUTATION_WINDOW_S: f64 = 40.0;
/// Seconds of mutations folded into each new snapshot.
const REFRESH_S: f64 = 8.0;
/// Staging buffers are sized for this many 64-query batches, so no buffer
/// grows mid-run (see the same constant in `batch.rs`).
const STAGING_HEADROOM: usize = 8;
/// Chunk cap of the priority dispatcher.
const MAX_CHUNK: usize = 32;
/// Every `RECALL_STRIDE`-th answered query is scored against exact search.
const RECALL_STRIDE: usize = 2;
const RECALL_FLOOR: f64 = 0.35;

/// The head-of-line mix: the tight tenant's SLO is shorter than one bulk
/// batch, so only chunked priority dispatch can meet both.
fn tenant_mix(run: &Run, scale: usize) -> MultiTenantSpec {
    let tenant =
        |id: TenantId, name: &str, queries: usize, qps: f64, slo_s: f64, repeat: f64, salt: u64| {
            let queries = queries / scale;
            TenantSpec::new(
                id,
                StreamSpec::new(queries, qps)
                    .with_workload(WorkloadSpec::new(queries).with_seed(run.seed_for(salt)))
                    .with_repeat_fraction(repeat)
                    .with_slo_p99(slo_s),
            )
            .with_name(name)
        };
    MultiTenantSpec::new()
        .with_tenant(
            tenant(TIGHT, "tight", TIGHT_QUERIES, 2.0, 0.7, 0.0, 50)
                .with_weight(2)
                .with_option_mix(vec![(10, 8)]),
        )
        .with_tenant(
            tenant(BULK, "bulk", BULK_QUERIES, 18.0, 30.0, 0.25, 51).with_option_mix(vec![
                (10, 4),
                (10, 8),
                (20, 8),
            ]),
        )
}

/// A slow modeled fold (256 KiB/s) so compaction windows last long enough
/// for arrivals to land inside them and pay the stall.
fn compaction_policy() -> CompactionPolicy {
    CompactionPolicy {
        bytes_per_second: 256.0 * 1024.0,
        ..CompactionPolicy::default()
    }
}

pub fn run(run: &Run, rec: &mut Record) {
    let n = run.size(N, 2_000);
    let nlist = run.size(NLIST, 128);
    let scale = run.size(1, 4);
    let capacity = BatchCapacity {
        batch_size: 64 * STAGING_HEADROOM,
        nprobe: 8,
        max_k: 20,
    };
    let ((data, history, index, stream, events, plan, mut engine), setup) =
        Setup::repeat(run, |s| {
            let (data, history, stream, events) = s.phase("data", || {
                let data = corpus(n);
                let history = history(&data);
                let stream = tenant_mix(run, scale).generate(&data);
                let events = mutations(run, scale, &data, 0.0);
                (data, history, stream, events)
            });
            let index = s.phase("train", || train(&data.vectors, nlist, 2_400));
            let mut engine = s.phase("build", || {
                build_upanns(&index, DPUS, MODELED_N / n as f64, &history, &capacity)
            });
            let plan = s.phase("plan", || {
                plan_live_index(&index, &events, REFRESH_S, &compaction_policy())
            });
            let accepted = s.phase("install", || engine.install_timeline(plan.timeline.clone()));
            assert!(accepted, "the UpANNS engine accepts snapshot timelines");
            (data, history, index, stream, events, plan, engine)
        });
    setup.record(rec);
    rec.set("compaction.plan_s", setup.phase_s("plan"));
    rec.set("compaction.install_s", setup.phase_s("install"));
    rec.set("compaction.events", events.len() as f64);
    rec.set("compaction.snapshots", plan.timeline.entries().len() as f64);
    rec.set("compaction.compactions", plan.compactions.len() as f64);

    // `with_live_index` installs the timeline again (it also arms the
    // cache's epoch checks); free the set-up's copy first so only one is
    // ever resident.
    engine.install_timeline(SnapshotTimeline::frozen(&index));
    let tally = Arc::new(Mutex::new(Tally::default()));
    let probe = Probe::new(&mut engine, tally.clone(), run.tracer.clone());
    let (mut service, accepted) =
        SearchService::new(probe, service_config(Some(MAX_CHUNK))).with_live_index(&plan.timeline);
    rec.check(accepted, || {
        "the engine declined the live index".to_string()
    });

    // Warm-up, not measured: staging buffers reach their size (the modeled
    // transfer sizes follow them) before the first measured replay.
    let (s, _, _) = replay(run, service, &stream, "live-tenants.warmup");
    service = s;
    take(&tally);
    let mut plain_s = None;
    if let Some(tracer) = &run.tracer {
        tracer.set_recording(false);
        let (s, _, host_s) = replay(run, service, &stream, "live-tenants.untraced");
        service = s;
        tracer.set_recording(true);
        plain_s = Some(host_s);
        take(&tally);
    }

    // The first measured replay gives the modeled numbers and the per-layer
    // counts; the rest of the run repeats it, and each repeat must agree
    // with it bit for bit. The host rate takes the fastest parts of all.
    let (s, first, first_s) = replay(run, service, &stream, "live-tenants.replay");
    service = s;
    let pass = take(&tally);
    let clock = Stopwatch::start();
    let mut replays = 1u64;
    let mut fastest = FastestPass::default();
    fastest.add(&pass.call_host_s, first_s - pass.host_s);
    let mut drifted = 0u64;
    while replays < 2 || clock.elapsed_s() < run.seconds {
        let (s, again, again_s) = replay(run, service, &stream, "live-tenants.replay");
        service = s;
        if !same_replay(&first, &again) {
            drifted += stream.len() as u64;
        }
        let t = take(&tally);
        fastest.add(&t.call_host_s, again_s - t.host_s);
        replays += 1;
    }
    drop(service);

    let offered = stream.len() as u64;
    rec.attempted = replays * offered;
    rec.check(drifted == 0, || {
        format!("{drifted} queries replayed differently from the first replay")
    });
    rec.check(first.completed + first.shed == stream.len(), || {
        format!(
            "completed {} + shed {} != offered {}",
            first.completed,
            first.shed,
            stream.len()
        )
    });
    let stale = stale_answers(&first, &stream, &plan.timeline);
    rec.check(stale == 0, || {
        format!("{stale} answers differ from their arrival snapshot's search")
    });
    rec.failed = drifted + first.shed as u64 * replays + stale;

    rec.set("run.host_qps", ratio(stream.len() as f64, fastest.host_s()));
    rec.set("modeled_qps", ratio(pass.queries as f64, pass.modeled_s));
    rec.set("p50_ms", first.p50() * 1e3);
    rec.set("p99_ms", first.p99() * 1e3);
    let recall = recall_at_arrival(&first, &stream, &data.vectors, &events);
    rec.set("recall_at_k", recall);
    rec.check(recall >= RECALL_FLOOR, || {
        format!("recall {recall:.3} is below {RECALL_FLOOR}")
    });
    if let Some(plain_s) = plain_s {
        rec.set("trace.overhead", ratio(first_s, plain_s) - 1.0);
    }

    record_engine(rec, &pass, engine.energy_model().peak_watts);
    record_builder(rec, &engine);
    record_service(rec, &first, &stream, first_s - pass.host_s);
    // Free the measured phase's engine and timeline first, so the delete
    // replay never holds two of either.
    drop((engine, plan, events));

    // The same mix once more, with deletes in the mutation stream.
    let events = mutations(run, scale, &data, DELETE_QPS);
    let plan = plan_live_index(&index, &events, REFRESH_S, &compaction_policy());
    let engine = build_upanns(&index, DPUS, MODELED_N / n as f64, &history, &capacity);
    // Report a panic in one line, without a backtrace: resolving one reads
    // the binary's debug information, which would move `peak_rss_mb` with
    // the environment's RUST_BACKTRACE.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| eprintln!("upbench: panic: {info}")));
    let replayed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let (mut service, accepted) = SearchService::new(engine, service_config(Some(MAX_CHUNK)))
            .with_live_index(&plan.timeline);
        let bank =
            ControllerBank::for_profiles(&stream.tenant_profiles, service_config(None).batcher);
        service = service.with_policy(Box::new(bank));
        let report = run.workload_span("live-tenants.deletes", || service.replay_planned(&stream));
        (accepted, report)
    }));
    std::panic::set_hook(default_hook);
    match replayed {
        Ok((accepted, report)) => {
            rec.attempted += offered;
            rec.set("compaction.delete_panics", 0.0);
            rec.check(accepted, || {
                "the engine declined the live index with deletes".to_string()
            });
            let stale = stale_answers(&report, &stream, &plan.timeline);
            rec.check(stale == 0 && report.completed + report.shed == stream.len(), || {
                format!(
                    "with deletes: {stale} answers differ from their arrival snapshot's search; completed {} + shed {} of {}",
                    report.completed,
                    report.shed,
                    stream.len()
                )
            });
            rec.failed += stale + report.shed as u64;
        }
        // The known engine defect (see the module docs): reported, not
        // counted as a failed check.
        Err(_) => {
            eprintln!(
                "upbench: live-tenants: the replay with deletes panicked (known engine defect)"
            );
            rec.set("compaction.delete_panics", 1.0);
        }
    }
}

/// The bulk tenant's seeded mutation stream: [`UPSERT_QPS`] upserts and
/// `delete_qps` deletes per replay-clock second.
fn mutations(
    run: &Run,
    scale: usize,
    data: &annkit::synthetic::SyntheticDataset,
    delete_qps: f64,
) -> MutationStream {
    MutationSpec::new(MUTATION_WINDOW_S / scale as f64)
        .with_tenant(BULK, UPSERT_QPS, delete_qps)
        .with_seed(run.seed_for(52))
        .generate(data, data.vectors.len() as u64)
}

type Service<'a> = SearchService<Probe<'a, UpAnnsEngine>>;

/// One measured `replay_planned` under a fresh per-tenant controller bank:
/// the service back, its report, and the call's host seconds.
fn replay<'a>(
    run: &Run,
    service: Service<'a>,
    stream: &QueryStream,
    label: &str,
) -> (Service<'a>, ServiceReport, f64) {
    let bank = ControllerBank::for_profiles(&stream.tenant_profiles, service_config(None).batcher);
    let mut service = service.with_policy(Box::new(bank));
    let clock = Stopwatch::start();
    let report = run.workload_span(label, || service.replay_planned(stream));
    let host_s = clock.elapsed_s();
    (service, report, host_s)
}

/// Answers that differ from a search of the snapshot active at their own
/// arrival (stale or wrong answers).
fn stale_answers(report: &ServiceReport, stream: &QueryStream, timeline: &SnapshotTimeline) -> u64 {
    let mut stale = 0;
    for (i, answer) in report.results.iter().enumerate() {
        if answer.is_empty() {
            continue; // shed
        }
        let (k, nprobe) = stream.option_plan[i];
        let expect =
            timeline
                .at(stream.arrivals[i])
                .search(stream.batch.queries.vector(i), nprobe, k);
        if !same_answer(answer, &expect) {
            stale += 1;
        }
    }
    stale
}

/// Mean recall of every `RECALL_STRIDE`-th answer against exact search over
/// the corpus as it stood at the query's arrival: the base vectors (ids are
/// row positions) with every mutation up to that instant applied.
fn recall_at_arrival(
    report: &ServiceReport,
    stream: &QueryStream,
    base: &annkit::vector::Dataset,
    events: &MutationStream,
) -> f64 {
    let mut live: BTreeMap<u64, Vec<f32>> = base
        .iter()
        .enumerate()
        .map(|(i, v)| (i as u64, v.to_vec()))
        .collect();
    let mut next = 0usize;
    let mut sum = 0.0;
    let mut scored = 0usize;
    for (i, answer) in report.results.iter().enumerate() {
        let arrival = stream.arrivals[i];
        while next < events.events.len() && events.events[next].at <= arrival {
            match &events.events[next].op {
                MutationOp::Upsert { id, vector } => {
                    live.insert(*id, vector.clone());
                }
                MutationOp::Delete { id } => {
                    live.remove(id);
                }
            }
            next += 1;
        }
        if answer.is_empty() || i % RECALL_STRIDE != 0 {
            continue;
        }
        let (k, _) = stream.option_plan[i];
        let query = stream.batch.queries.vector(i);
        let mut top = TopK::new(k);
        for (&id, v) in &live {
            top.push(id, l2_squared(query, v));
        }
        let exact: Vec<Neighbor> = top.into_sorted();
        sum += recall_at_k(std::slice::from_ref(answer), &[exact], k);
        scored += 1;
    }
    ratio(sum, scored as f64)
}
