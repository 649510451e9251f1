//! Posterior fingerprint: a warm chained `Corrector` over a fixed TeraSort
//! multiplexed run must publish exactly these posterior bits.
//!
//! The hash covers the bit pattern of every published mean and variance
//! (FNV-1a over `to_bits()`), at `threads = 1` and `threads = 2`. Any
//! change to the EP engine, the MCMC kernel, the observation model or the
//! RNG streams that moves a single posterior by one ulp changes the hash.
//! Performance work on the inference path must leave it untouched; a
//! change that is *meant* to move posteriors re-records the constant and
//! says why.

use bayesperf_core::corrector::{Corrector, CorrectorConfig};
use bayesperf_events::{Arch, Catalog, EventId};
use bayesperf_simcpu::{pack_round_robin, Pmu, PmuConfig};
use std::collections::BTreeSet;

/// FNV-1a over the mean/var bit patterns of the whole posterior series.
const FINGERPRINT: u64 = 0x9677_9d90_ed79_3ca1;

/// Windows in the fixture run (four chunks of the default six slices).
const WINDOWS: usize = 24;

fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hash of every posterior a warm chained corrector publishes over the
/// fixture run, with `threads` farm workers.
fn fingerprint(threads: usize) -> u64 {
    let cat = Catalog::new(Arch::X86SkyLake);
    // The programmable events behind the catalog's derived metrics.
    let hpcs: Vec<EventId> = cat
        .derived_events()
        .iter()
        .flat_map(|d| d.events())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .filter(|&e| cat.event(e).is_programmable())
        .collect();
    let schedule = pack_round_robin(&cat, &hpcs).unwrap();
    let program = bayesperf_workloads::by_name("TeraSort").unwrap();
    let mut truth = program.instantiate(&cat, 3);
    let pmu = Pmu::new(
        &cat,
        PmuConfig {
            seed: 3,
            ..PmuConfig::for_catalog(&cat)
        },
    );
    let run = pmu.run_multiplexed(&mut truth, &schedule, WINDOWS);

    let config = CorrectorConfig::for_run(&run).with_threads(threads);
    assert!(config.warm_start);
    let series = Corrector::new(&cat, config).correct_run(&run);
    assert_eq!(series.windows(), WINDOWS);

    let mut hash = 0xcbf2_9ce4_8422_2325;
    for w in 0..WINDOWS {
        for e in cat.iter() {
            let g = series.posterior(w, e.id);
            hash = fnv1a(hash, g.mean.to_bits());
            hash = fnv1a(hash, g.var.to_bits());
        }
    }
    hash
}

#[test]
fn warm_chained_posteriors_match_the_recorded_fingerprint() {
    let one = fingerprint(1);
    let two = fingerprint(2);
    assert_eq!(one, two, "thread count must not change posteriors");
    assert_eq!(
        one, FINGERPRINT,
        "posterior bits moved: fingerprint {one:#018x}, recorded {FINGERPRINT:#018x}"
    );
}
