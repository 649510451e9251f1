//! The in-process [`Fleet`] and a networked [`FleetScraper`] are one
//! aggregation path: scraping the same shard sessions over clean
//! simulated links must publish the same fleet snapshot, bit for bit —
//! fused posteriors, per-shard posteriors, shard rows and health rows —
//! at every stage of a stream: the first flushed chunks, later progress,
//! and after a shard leaves.

use bayesperf_core::corrector::CorrectorConfig;
use bayesperf_events::{Arch, Catalog, Semantic};
use bayesperf_fleet::{
    Fleet, FleetConfig, FleetScraper, FleetSnapshot, ScrapeConfig, ScrapeResponder, ShardId,
    ShardLabel, SimTransport,
};
use bayesperf_simcpu::{
    pack_round_robin, CorrelatedTruth, LinkProfile, LinkState, MultiplexRun, Pmu, PmuConfig,
    ShardProfile,
};
use bayesperf_workloads::kmeans;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A distinct-but-correlated stream per shard, so the fusion has
/// genuinely different inputs to weigh.
fn recorded_run(cat: &Catalog, n_windows: usize, shard: u32) -> MultiplexRun {
    let profile = ShardProfile::derive(11, shard);
    let mut truth = CorrelatedTruth::new(kmeans().instantiate(cat, 0), profile);
    let pmu = Pmu::new(cat, profile.pmu_config(&PmuConfig::for_catalog(cat)));
    let events = vec![
        cat.require(Semantic::L1dMisses),
        cat.require(Semantic::LlcHits),
        cat.require(Semantic::LlcMisses),
    ];
    let schedule = pack_round_robin(cat, &events).expect("schedule fits");
    pmu.run_multiplexed(&mut truth, &schedule, n_windows)
}

fn feed(fleet: &Fleet, shard: ShardId, run: &MultiplexRun, windows: Range<usize>) {
    for w in &run.windows[windows] {
        for s in &w.samples {
            fleet.push_sample(shard, *s).expect("room");
        }
    }
}

/// Waits until every live shard's inference thread has parked, then runs
/// one more round. A thread descheduled between its flush ack and parking
/// reads as stalled to the liveness probe (heartbeat frozen, not idle);
/// the round after it parks proves it live and resets its health age.
fn settle(fleet: &Fleet) {
    for (id, _) in fleet.shards() {
        fleet
            .with_shard_monitor(id, |m| {
                let deadline = Instant::now() + Duration::from_secs(30);
                while !m.heartbeat().1 {
                    assert!(Instant::now() < deadline, "shard {id:?} never parked");
                    std::thread::yield_now();
                }
            })
            .expect("member");
    }
    fleet.refresh().expect("alive");
}

/// Every bit the two paths publish, generation aside (each path counts
/// its own rounds). Health rows are compared on the state machine's
/// position — state, age and inflation — which is what fusion consumes.
fn assert_same_snapshot(fleet: &FleetSnapshot, scraped: &FleetSnapshot, stage: &str) {
    assert_eq!(fleet.shards, scraped.shards, "{stage}: shard rows");
    assert_eq!(fleet.fused.len(), scraped.fused.len());
    for (e, (a, b)) in fleet.fused.iter().zip(&scraped.fused).enumerate() {
        assert_eq!(
            a.mean.to_bits(),
            b.mean.to_bits(),
            "{stage}: event {e} mean"
        );
        assert_eq!(a.var.to_bits(), b.var.to_bits(), "{stage}: event {e} var");
    }
    assert_eq!(fleet.per_shard.len(), scraped.per_shard.len());
    for (a, b) in fleet.per_shard.iter().zip(&scraped.per_shard) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.mean.to_bits(), y.mean.to_bits(), "{stage}: shard mean");
            assert_eq!(x.var.to_bits(), y.var.to_bits(), "{stage}: shard var");
        }
    }
    let health = |s: &FleetSnapshot| {
        s.health
            .iter()
            .map(|h| (h.shard, h.state, h.age, h.inflation.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(health(fleet), health(scraped), "{stage}: health rows");
}

#[test]
fn in_process_fleet_and_scraper_publish_identical_snapshots() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let runs: Vec<MultiplexRun> = (0..3).map(|s| recorded_run(&cat, 18, s)).collect();
    let cfg = CorrectorConfig::for_run(&runs[0]);
    let mut config = FleetConfig::new(cfg);
    // Rounds run on flush and membership changes only.
    config.scrape_interval = Duration::from_secs(3600);
    let mut fleet = Fleet::new(&cat, config).expect("spawn fleet");
    let ids: Vec<ShardId> = (0..3)
        .map(|i| {
            fleet
                .add_shard(ShardLabel::new(format!("m{i}"), i % 2))
                .expect("spawn shard")
        })
        .collect();

    let mut scraper = FleetScraper::new(cat.len(), ScrapeConfig::default());
    for (i, (&id, (_, label))) in ids.iter().zip(fleet.shards()).enumerate() {
        let session = fleet.shard_session(id).expect("member");
        let responder = Arc::new(ScrapeResponder::new(id, label.clone(), session));
        let link = LinkState::new(LinkProfile::clean(i as u64));
        scraper.add_endpoint(id, label, Box::new(SimTransport::new(responder, link)));
    }
    let reader = scraper.reader();

    // Two full chunks on every shard, the third shard one chunk behind.
    for (&id, run) in ids.iter().zip(&runs) {
        let end = if id == ids[2] { 6 } else { 12 };
        feed(&fleet, id, run, 0..end);
    }
    fleet.flush().expect("alive");
    settle(&fleet);
    scraper.poll_round();
    assert_same_snapshot(
        &fleet.snapshot().expect("published"),
        &reader.read().expect("published"),
        "first flush",
    );

    // Later progress, including a ragged tail on every shard.
    for (&id, run) in ids.iter().zip(&runs) {
        let start = if id == ids[2] { 6 } else { 12 };
        feed(&fleet, id, run, start..16);
    }
    fleet.flush().expect("alive");
    settle(&fleet);
    scraper.poll_round();
    assert_same_snapshot(
        &fleet.snapshot().expect("published"),
        &reader.read().expect("published"),
        "second flush",
    );

    // A shard leaves both paths.
    fleet.remove_shard(ids[1]).expect("member");
    scraper.remove_endpoint(ids[1]).expect("endpoint");
    settle(&fleet);
    scraper.poll_round();
    let after = fleet.snapshot().expect("published");
    assert_eq!(after.shards.len(), 2);
    assert_same_snapshot(&after, &reader.read().expect("published"), "after removal");
}
