//! `batch-skewed`: the paper's own measurement. A closed loop on one
//! thread calls `execute` on UpANNS directly with Zipf-skewed 1,000-query
//! batches (k = 10, fixed nprobe); a traced run adds one CPU-Faiss
//! reference pass.
//!
//! The corpus has 16 lists of ~750 vectors, so each probed list carries
//! several LUT builds' worth of lookups (`engine.lookups_per_candidate`
//! times candidates over LUT entries is well above 1) and the ADC scan
//! carries the engine's host time.

use std::sync::{Arc, Mutex};

use annkit::workload::WorkloadSpec;
use baselines::cpu::CpuFaissEngine;
use baselines::engine::{AnnEngine, SearchRequest, SearchResponse};
use upanns::builder::BatchCapacity;

use crate::clock::Stopwatch;
use crate::common::{
    build_upanns, corpus, history, mean_recall, record_builder, record_engine, same_ids, train,
    FastestPass, Run, Setup,
};
use crate::metrics::{percentile, ratio, Record};
use crate::probe::{take, Probe, Tally};

const N: usize = 12_000;
const NLIST: usize = 16;
const DPUS: usize = 64;
const BATCH: usize = 1_000;
/// Staging buffers are sized for this many batches' worth of queries, so
/// the hottest DPU of a skewed batch fits and no buffer grows mid-run
/// (growth allocates a fresh MRAM region, and modeled transfer sizes follow
/// the buffers).
const STAGING_HEADROOM: usize = 8;
/// Vectors sampled to train the coarse quantizer and PQ codebooks.
const TRAIN_SIZE: usize = 2_400;
/// Distinct batches; the closed loop cycles through them.
const BATCHES: u64 = 4;
const NPROBE: usize = 4;
const K: usize = 10;
/// Recall is scored on every `RECALL_STRIDE`-th query of each batch.
const RECALL_STRIDE: usize = 8;
/// Lowest mean recall@10 the run accepts as correct answers.
const RECALL_FLOOR: f64 = 0.3;
/// List size of the paper's billion-scale configuration (10^9 vectors in
/// 4,096 lists); the modeled work scale projects each list to it.
const MODELED_LIST: f64 = 1e9 / 4096.0;

pub fn run(run: &Run, rec: &mut Record) {
    let n = run.size(N, 3_000);
    let nlist = run.size(NLIST, 8);
    let batch = run.size(BATCH, 100);
    let batches = run.size(BATCHES, 2);
    let work_scale = MODELED_LIST * nlist as f64 / n as f64;
    let capacity = BatchCapacity {
        batch_size: batch * STAGING_HEADROOM,
        nprobe: NPROBE,
        max_k: K,
    };

    let ((data, index, mut engine, requests), setup) = Setup::repeat(run, |s| {
        let (data, history, requests) = s.phase("data", || {
            let data = corpus(n);
            // History and batches share the default popularity ranking, so
            // the placement anticipates the lists the batches make hot.
            let history = history(&data);
            let requests: Vec<SearchRequest> = (0..batches)
                .map(|b| {
                    let queries = WorkloadSpec::new(batch)
                        .with_seed(run.seed_for(10 + b))
                        .generate(&data)
                        .queries;
                    SearchRequest::uniform(&queries, NPROBE, K).with_id(b)
                })
                .collect();
            (data, history, requests)
        });
        let index = s.phase("train", || train(&data.vectors, nlist, TRAIN_SIZE));
        let engine = s.phase("build", || {
            build_upanns(&index, DPUS, work_scale, &history, &capacity)
        });
        (data, index, engine, requests)
    });
    setup.record(rec);

    // Warm-up, not measured: one pass lets every batch shape grow the
    // engine's staging buffers (the modeled transfer sizes follow them),
    // after which a repeat of a batch must reproduce it bit for bit.
    for r in &requests {
        engine.execute(r);
    }

    // In a traced run, the same pass without tracing, for `trace.overhead`.
    let plain_s = run.tracer.is_some().then(|| {
        let plain = Arc::new(Mutex::new(Tally::default()));
        let mut probe = Probe::new(&mut engine, plain.clone(), None);
        for r in &requests {
            probe.execute(r);
        }
        take(&plain).host_s
    });
    let tally = Arc::new(Mutex::new(Tally::default()));
    let mut probe = Probe::new(&mut engine, tally.clone(), run.tracer.clone());

    // One pass over the distinct batches gives the modeled numbers and the
    // per-layer counts; the closed loop then repeats the pass for the rest
    // of the run, and every repeat must reproduce it bit for bit.
    let first: Vec<SearchResponse> = run.workload_span("batch-skewed.pass", || {
        requests.iter().map(|r| probe.execute(r)).collect()
    });
    let pass = take(&tally);
    // Host rate from the fastest time of each batch over all passes.
    let mut fastest = FastestPass::default();
    fastest.add(&pass.call_host_s, 0.0);
    let mut passes = 1u64;
    let clock = Stopwatch::start();
    let mut drifted = 0u64;
    run.workload_span("batch-skewed.loop", || {
        while passes < 2 || clock.elapsed_s() < run.seconds {
            for (request, first) in requests.iter().zip(&first) {
                let again = probe.execute(request);
                let same = again.seconds.to_bits() == first.seconds.to_bits()
                    && again
                        .results
                        .iter()
                        .zip(&first.results)
                        .all(|(a, b)| same_ids(a, b));
                if !same {
                    drifted += request.len() as u64;
                }
            }
            fastest.add(&take(&tally).call_host_s, 0.0);
            passes += 1;
        }
    });
    drop(probe);
    rec.attempted = pass.queries * passes;
    rec.failed = drifted;
    rec.check(drifted == 0, || {
        format!("{drifted} queries answered differently, or with other modeled time, on a repeat of one batch")
    });

    rec.set("run.host_qps", ratio(pass.queries as f64, fastest.host_s()));
    if let Some(plain_s) = plain_s {
        rec.set("trace.overhead", ratio(pass.host_s, plain_s) - 1.0);
    }

    // Modeled: each query of a batch completes when its batch does.
    let latencies: Vec<f64> = first
        .iter()
        .flat_map(|r| std::iter::repeat_n(r.seconds * 1e3, r.results.len()))
        .collect();
    rec.set("modeled_qps", ratio(pass.queries as f64, pass.modeled_s));
    rec.set("p50_ms", percentile(&latencies, 50.0));
    rec.set("p99_ms", percentile(&latencies, 99.0));

    let mut recall_sum = 0.0;
    let mut scored = 0usize;
    for (request, response) in requests.iter().zip(&first) {
        let (r, n) = mean_recall(
            &data.vectors,
            request.queries(),
            &response.results,
            |_| K,
            RECALL_STRIDE,
        );
        recall_sum += r * n as f64;
        scored += n;
    }
    let recall = ratio(recall_sum, scored as f64);
    rec.set("recall_at_k", recall);
    rec.check(recall >= RECALL_FLOOR, || {
        format!("recall@{K} {recall:.3} is below {RECALL_FLOOR}")
    });

    record_engine(rec, &pass, engine.energy_model().peak_watts);
    record_builder(rec, &engine);

    if run.tracer.is_some() {
        let mut cpu = CpuFaissEngine::new(&index).with_work_scale(work_scale);
        let clock = Stopwatch::start();
        let reference = cpu.execute(&requests[0]);
        let host_s = clock.elapsed_s();
        rec.set(
            "baselines.cpu_host_qps",
            ratio(reference.results.len() as f64, host_s),
        );
        rec.set("baselines.cpu_modeled_qps", reference.qps());
    }
}
