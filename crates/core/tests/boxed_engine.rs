//! The `Box<E>` forwarding impl of [`AnnEngine`]: a boxed engine must be
//! indistinguishable from the engine it holds. Every optional method has a
//! trait default, so a missed forward would still compile — and silently
//! answer `false`/`None`, dropping live-index support or host elasticity
//! from every harness that holds its engines boxed.

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::mutation::SnapshotTimeline;
use annkit::synthetic::SyntheticSpec;
use annkit::vector::Dataset;
use baselines::engine::{AnnEngine, QueryOptions, SearchRequest, SearchResponse};
use pim_sim::config::PimConfig;
use upanns::builder::{BatchCapacity, UpAnnsBuilder};
use upanns::config::UpAnnsConfig;
use upanns::engine::UpAnnsEngine;
use upanns::multihost::{shard_ranges, InterconnectModel};
use upanns::replica::ReplicatedMultiHost;

type Boxed = Box<dyn AnnEngine + Send>;

fn corpus() -> Dataset {
    SyntheticSpec::sift_like(900).with_clusters(8).with_seed(31).generate()
}

fn index_over(data: &Dataset, first_id: u64) -> IvfPqIndex {
    let mut index = IvfPqIndex::train_empty(data, &IvfPqParams::new(8, 16).with_train_size(300), 2);
    index.add(data, first_id);
    index
}

fn upanns(index: &IvfPqIndex) -> UpAnnsEngine {
    let capacity = BatchCapacity { batch_size: 16, nprobe: 8, max_k: 20 };
    UpAnnsBuilder::new(index)
        .with_config(UpAnnsConfig::upanns())
        .with_pim_config(PimConfig::with_dpus(32))
        .with_batch_capacity(capacity)
        .build()
}

/// A mixed-options request over a few corpus vectors.
fn request(data: &Dataset) -> SearchRequest {
    let options = [QueryOptions::new(10, 8), QueryOptions::new(10, 4), QueryOptions::new(20, 8)];
    let rows = [3, 141, 592, 653, 58];
    let options = rows.iter().zip(options.iter().cycle()).map(|(_, &o)| o).collect();
    SearchRequest::new(data.gather(&rows), options).with_at(2.5)
}

/// Asserts two responses carry the same ids, distance bits and seconds.
fn assert_bitwise_equal(got: &SearchResponse, want: &SearchResponse) {
    let bits = |r: &SearchResponse| -> Vec<Vec<(u64, u32)>> {
        r.results.iter().map(|q| q.iter().map(|n| (n.id, n.distance.to_bits())).collect()).collect()
    };
    assert_eq!(bits(got), bits(want));
    assert_eq!(got.seconds.to_bits(), want.seconds.to_bits());
    assert_eq!(got.request_id, want.request_id);
}

#[test]
fn boxed_upanns_matches_the_engine_it_holds_and_accepts_a_timeline() {
    let data = corpus();
    let index = index_over(&data, 0);
    let (mut plain, mut boxed): (UpAnnsEngine, Boxed) = (upanns(&index), Box::new(upanns(&index)));
    assert_eq!(boxed.name(), plain.name());
    assert_eq!(boxed.energy_model(), plain.energy_model());
    assert_bitwise_equal(&boxed.execute(&request(&data)), &plain.execute(&request(&data)));
    let queries = data.gather(&[7, 77, 777]);
    assert_bitwise_equal(&boxed.search_batch(&queries, 4, 10), &plain.search_batch(&queries, 4, 10));

    let timeline = SnapshotTimeline::frozen(&index);
    assert!(plain.install_timeline(timeline.clone()));
    assert!(
        boxed.install_timeline(timeline),
        "the box dropped install_timeline and fell back to the declining default"
    );
    assert_bitwise_equal(&boxed.execute(&request(&data)), &plain.execute(&request(&data)));
    // A single-host engine has no elasticity, boxed or not.
    assert_eq!(boxed.live_hosts(), None);
    assert_eq!(boxed.scale_to(4, 0.0), None);
}

#[test]
fn boxed_replicated_deployment_keeps_its_elasticity() {
    let data = corpus();
    let shards = shard_ranges(data.len(), 2)
        .iter()
        .map(|r| upanns(&index_over(&data.gather(&r.clone().collect::<Vec<_>>()), r.start as u64)))
        .collect();
    let deployment = ReplicatedMultiHost::new(shards, 2, 2, InterconnectModel::default())
        .expect("two shards, two hosts, two replicas");
    let name = deployment.name().to_string();
    let mut boxed: Boxed = Box::new(deployment);
    assert_eq!(boxed.name(), name);
    assert_eq!(boxed.live_hosts(), Some(2), "the box dropped live_hosts");
    let migration = boxed.scale_to(3, 0.0);
    assert!(migration.is_some_and(|s| s >= 0.0), "the box dropped scale_to: {migration:?}");
    assert_eq!(boxed.live_hosts(), Some(3));
}
