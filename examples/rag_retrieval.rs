//! Retrieval-augmented generation (RAG) serving scenario.
//!
//! A RAG-LLM service retrieves supporting passages for every generation
//! request. The embedding corpus (DEEP-like, 96-d CNN/transformer embeddings)
//! is large, the query stream is heavily skewed toward trending topics, and
//! the service cares about tail latency and energy per query. This example
//! compares UpANNS against the Faiss-CPU and Faiss-GPU baselines on exactly
//! that workload and reports throughput, latency and efficiency.
//!
//! Run with:
//! ```text
//! cargo run --release --example rag_retrieval
//! ```

use annkit::prelude::*;
use baselines::prelude::*;
use pim_sim::config::PimConfig;
use upanns::prelude::*;

fn main() {
    // Corpus of passage embeddings: DEEP-like (96-d), with strong topic skew.
    let n = 40_000;
    println!("Building a DEEP-like passage-embedding corpus ({n} passages) ...");
    let corpus = SyntheticSpec::deep_like(n)
        .with_clusters(96)
        .with_size_skew(1.0)
        .with_seed(2024)
        .generate_with_meta();

    // IVFPQ index: 96 clusters, M = 12 (the paper's DEEP1B configuration).
    let index = IvfPqIndex::train(
        &corpus.vectors,
        &IvfPqParams::new(96, 12).with_train_size(10_000),
        3,
    );

    // Yesterday's query log drives the placement: trending topics get
    // replicated across DPUs.
    let yesterday = WorkloadSpec::new(4_000)
        .with_skew(1.1)
        .with_seed(41)
        .generate(&corpus);

    // Project timing to the billion-passage corpus this corpus stands for.
    let scale = 1e9 / n as f64;
    let mut upanns = UpAnnsBuilder::new(&index)
        .with_config(UpAnnsConfig::upanns().with_work_scale(scale))
        .with_pim_config(PimConfig::paper_seven_dimms())
        .with_history(&yesterday.queries, 12)
        .build();
    let mut cpu = CpuFaissEngine::new(&index).with_work_scale(scale);
    let mut gpu = GpuFaissEngine::new(&index).with_work_scale(scale);

    // Today's traffic: 500 retrieval requests, top-20 passages each.
    let today = WorkloadSpec::new(500).with_skew(1.1).with_seed(42).generate(&corpus);
    let nprobe = 12;
    let k = 20;

    let exact = FlatIndex::new(&corpus.vectors).search_batch(&today.queries, k);

    println!("\n{:<12} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "engine", "QPS", "ms/query", "QPS/Watt", "QPS/$", "recall@20");
    let report = |name: &str, outcome: &baselines::engine::SearchResponse, energy: &pim_sim::energy::EnergyModel| {
        let recall = recall_at_k(&outcome.results, &exact, k);
        println!(
            "{name:<12} {:>10.0} {:>12.3} {:>12.2} {:>10.3} {:>10.3}",
            outcome.qps(),
            outcome.mean_latency() * 1e3,
            outcome.qps_per_watt(energy),
            outcome.qps_per_dollar(energy),
            recall
        );
    };

    let up_out = upanns.search_batch(&today.queries, nprobe, k);
    report(upanns.name(), &up_out, &upanns.energy_model());

    let cpu_out = cpu.search_batch(&today.queries, nprobe, k);
    report(cpu.name(), &cpu_out, &cpu.energy_model());

    let gpu_out = gpu.search_batch(&today.queries, nprobe, k);
    report(gpu.name(), &gpu_out, &gpu.energy_model());

    println!("\nPer-request context budget check:");
    println!(
        "  UpANNS retrieves {k} passages in {:.2} ms — {}",
        up_out.mean_latency() * 1e3,
        if up_out.mean_latency() < 0.5 {
            "well within an interactive LLM serving budget"
        } else {
            "check nprobe / batch size for your latency target"
        }
    );

    println!("\nWhere the time goes (UpANNS stage breakdown):");
    print!("{}", up_out.breakdown);

    println!("\nDPU load balance for today's skewed traffic: max/avg = {:.2}", upanns.last_balance_ratio());
    println!(
        "Co-occurrence encoding shortened codes by {:.1} % on average.",
        upanns.mean_reduction_rate() * 100.0
    );
}
