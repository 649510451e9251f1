//! Proof that the steady-state warm-started corrector loop is
//! allocation-free: after the first chunk has grown every buffer (engine
//! caches, per-site workspaces, cavity history), pushing further chunks
//! through the streaming API must not change the global allocation
//! counter — observation swap, prior re-seat, EP sweeps, MCMC chains,
//! chain-prior capture and posterior reads included. The counter sees
//! every thread, so at `threads = 2` the farm crew's helpers are held to
//! the same rule as the calling thread.
//!
//! This file holds exactly one test so no concurrent test can pollute the
//! global counter; it ends by opening 16 monitors at once and checking the
//! farm crew they share stays at `available_parallelism() − 1` helpers.

use bayesperf_core::corrector::{Corrector, CorrectorConfig};
use bayesperf_core::Monitor;
use bayesperf_events::{Arch, Catalog, Semantic};
use bayesperf_inference::crew_status;
use bayesperf_simcpu::{pack_round_robin, MultiplexRun, Pmu, PmuConfig, Sample};
use bayesperf_workloads::kmeans;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A 16-window KMeans run measuring two events.
fn kmeans_run(cat: &Catalog) -> MultiplexRun {
    let mut truth = kmeans().instantiate(cat, 0);
    let pmu = Pmu::new(cat, PmuConfig::for_catalog(cat));
    let events = vec![
        cat.require(Semantic::L1dMisses),
        cat.require(Semantic::LlcMisses),
    ];
    let schedule = pack_round_robin(cat, &events).unwrap();
    pmu.run_multiplexed(&mut truth, &schedule, 16)
}

/// Allocations across every chunk after the first, pushed through a
/// corrector of `slices`-window chunks on `threads` farm threads.
fn steady_state_allocations(
    cat: &Catalog,
    run: &MultiplexRun,
    slices: usize,
    threads: usize,
) -> u64 {
    let mut config = CorrectorConfig::for_run(run).with_threads(threads);
    config.model.slices = slices;
    let mut corrector = Corrector::new(cat, config);

    // Pre-build all chunk slices outside the measured region.
    let windows: Vec<&[Sample]> = run.windows.iter().map(|w| w.samples.as_slice()).collect();
    let chunks: Vec<&[&[Sample]]> = windows.chunks_exact(slices).collect();
    assert!(chunks.len() >= 3);
    let probe = cat.require(Semantic::LlcReferences);

    // Chunk 1 (cold): grows the engine caches, workspaces and history,
    // and at `threads > 1` brings up the farm crew.
    corrector.push_chunk(chunks[0]);

    // Every later chunk: the warm loop must be allocation-free, including
    // reading posteriors back out.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut checksum = 0.0f64;
    for chunk in &chunks[1..] {
        let stats = corrector.push_chunk(chunk);
        assert!(stats.sweeps_run >= 1);
        for t in 0..slices {
            checksum += corrector.posterior(t, probe).mean;
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    // Sanity: the loop really inferred something.
    assert!(checksum.is_finite() && checksum > 0.0);
    after - before
}

#[test]
fn steady_state_corrector_loop_allocates_nothing() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let run = kmeans_run(&cat);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Sequential farm: 2 slices, one site per batch.
    let n = steady_state_allocations(&cat, &run, 2, 1);
    assert_eq!(
        n, 0,
        "steady-state push_chunk allocated {n} times at threads = 1"
    );

    // The crew at work: 4 slices give two-site batches, so a helper can
    // take a site of every batch.
    let n = steady_state_allocations(&cat, &run, 4, 2);
    assert_eq!(
        n, 0,
        "steady-state push_chunk allocated {n} times at threads = 2"
    );
    if cores > 1 {
        assert!(
            crew_status().helpers >= 1,
            "threads = 2 never used the crew"
        );
    }

    // Sixteen monitors share one crew of at most cores − 1 helpers.
    let monitors: Vec<Monitor> = (0..16)
        .map(|_| Monitor::new(&cat, CorrectorConfig::for_run(&run), 4096).unwrap())
        .collect();
    for w in &run.windows {
        for m in &monitors {
            for &s in &w.samples {
                m.push_sample(s).unwrap();
            }
        }
    }
    Monitor::flush_all(&monitors).unwrap();
    for m in &monitors {
        assert_eq!(m.windows_published(), run.windows.len() as u64);
    }
    let status = crew_status();
    assert!(
        status.helpers < cores,
        "{} crew helpers on {cores} cores",
        status.helpers
    );
}
