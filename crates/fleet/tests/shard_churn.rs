//! Snapshot publication under shard churn: shards are dropped and
//! re-created while fleet readers poll concurrently. Readers must never
//! observe a torn snapshot (mixed generations / wrong-length vectors),
//! every removed monitor must shut down (no leaked ring or thread), and
//! publication must never wedge on a leaked reader slot — the aggregator
//! spin-waits on slot reader counts, so this test *completing* under
//! continuous churn is itself the no-leak proof.

use bayesperf_core::corrector::CorrectorConfig;
use bayesperf_core::ShimError;
use bayesperf_events::{Arch, Catalog, Semantic};
use bayesperf_fleet::{Fleet, FleetConfig, ShardLabel};
use bayesperf_simcpu::{pack_round_robin, MultiplexRun, Pmu, PmuConfig, ShardProfile};
use bayesperf_workloads::kmeans;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};

fn recorded_run(cat: &Catalog, n_windows: usize, seed: u64) -> MultiplexRun {
    let profile = ShardProfile::derive(7, seed as u32);
    let mut truth = bayesperf_simcpu::CorrelatedTruth::new(kmeans().instantiate(cat, 0), profile);
    let pmu = Pmu::new(cat, profile.pmu_config(&PmuConfig::for_catalog(cat)));
    let events = vec![
        cat.require(Semantic::L1dMisses),
        cat.require(Semantic::LlcHits),
        cat.require(Semantic::LlcMisses),
    ];
    let schedule = pack_round_robin(cat, &events).expect("schedule fits");
    pmu.run_multiplexed(&mut truth, &schedule, n_windows)
}

/// Stops the readers when the churn loop ends, by a panic too: a failed
/// assertion must fail the test, not leave the scope waiting forever on
/// readers that only stop on the flag.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, SeqCst);
    }
}

#[test]
fn shard_churn_under_concurrent_fleet_readers() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let n_events = cat.len();
    let run0 = recorded_run(&cat, 6, 0);
    let cfg = CorrectorConfig::for_run(&run0);

    let mut fleet = Fleet::new(&cat, FleetConfig::new(cfg)).expect("spawn fleet");
    let first = fleet
        .add_shard(ShardLabel::new("m0", 0))
        .expect("spawn shard");
    for w in &run0.windows {
        for s in &w.samples {
            fleet.push_sample(first, *s).expect("room");
        }
    }
    fleet.flush().expect("alive");

    let session = fleet.session().open().expect("open");
    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);

    std::thread::scope(|s| {
        for _ in 0..3 {
            let session = session.clone();
            let stop = &stop;
            let reads = &reads;
            s.spawn(move || {
                let mut last_generation = 0u64;
                while !stop.load(SeqCst) {
                    match session.snapshot() {
                        Ok(snap) => {
                            // Internal consistency: a torn snapshot would
                            // break one of these invariants.
                            assert_eq!(snap.fused.len(), n_events);
                            assert_eq!(snap.shards.len(), snap.per_shard.len());
                            assert!(!snap.shards.is_empty());
                            for p in &snap.per_shard {
                                assert_eq!(p.len(), n_events);
                            }
                            for g in &snap.fused {
                                assert!(g.var > 0.0 && g.mean.is_finite());
                            }
                            assert!(
                                snap.generation >= last_generation,
                                "generation went backwards: {} < {}",
                                snap.generation,
                                last_generation
                            );
                            last_generation = snap.generation;
                            reads.fetch_add(1, SeqCst);
                        }
                        Err(ShimError::NoShards) => {}
                        Err(e) => panic!("reader hit {e}"),
                    }
                    // Group reads exercise the guard-deref path too.
                    if let Ok(group) = session.read_group() {
                        assert_eq!(group.readings.len(), n_events);
                    }
                    std::thread::yield_now();
                }
            });
        }

        let _stop = StopOnDrop(&stop);
        // Churn: drop and re-create shards while the readers poll. Each
        // round removes the oldest shard, adds a fresh one with its own
        // heterogeneous stream, and syncs (forcing scrape passes that
        // overlap the reader traffic).
        let mut oldest = first;
        for round in 1..5u64 {
            let run = recorded_run(&cat, 6, round);
            let id = fleet
                .add_shard(ShardLabel::new(format!("m{round}"), 0))
                .expect("spawn shard");
            for w in &run.windows {
                for sample in &w.samples {
                    fleet.push_sample(id, *sample).expect("room");
                }
            }
            fleet.flush().expect("alive");
            fleet.remove_shard(oldest).expect("member");
            fleet.refresh().expect("alive");
            oldest = id;
            // The removed shard must be gone from both the routing view
            // and the next published snapshot.
            assert!(matches!(
                fleet.push_sample(first, run.windows[0].samples[0]),
                Err(ShimError::UnknownShard { .. })
            ));
            let snap = fleet.snapshot().expect("published");
            assert!(
                snap.shards.iter().all(|s| s.shard != first),
                "round {round}: removed shard still contributes"
            );
        }
    });

    assert!(reads.load(SeqCst) > 0, "readers observed live snapshots");
    assert!(fleet.remove_shard(first).is_err(), "ids are never reused");

    // Close while sessions still exist: reads turn into typed errors
    // rather than serving the last snapshot.
    fleet.close();
    assert_eq!(
        session.read(cat.require(Semantic::L1dMisses)),
        Err(ShimError::SessionClosed)
    );
    assert!(matches!(session.snapshot(), Err(ShimError::SessionClosed)));
}
