//! The farm crew's panic contract: a site that panics only when a crew
//! helper runs it makes `run_farm` panic on the caller; the helper
//! survives and is released; and a fresh engine on the same crew still
//! produces marginals bit-identical to a single-threaded run.
//!
//! This file holds exactly one test, so no other farm in the process
//! competes for the crew while it checks that every helper is idle.

use bayesperf_inference::{crew_status, EpConfig, ExpectationPropagation, FnSite, Gaussian};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const FAULT: &str = "site fault on a crew helper";

fn on_helper() -> bool {
    thread::current()
        .name()
        .is_some_and(|n| n.starts_with("bayesperf-farm"))
}

/// Four independent observation sites — one batch. A site evaluated on a
/// crew helper raises `helper_ran` (and panics when `panic_on_helper`);
/// on the caller the evaluations wait, for at most 10 s in total, until a
/// helper has run a site, so a helper is sure to take one.
fn probe_model(helper_ran: Arc<AtomicBool>, panic_on_helper: bool) -> ExpectationPropagation {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut ep = ExpectationPropagation::new(vec![Gaussian::new(0.0, 4.0); 4], EpConfig::default());
    for v in 0..4 {
        let ran = helper_ran.clone();
        ep.add_site(FnSite::new(vec![v], move |x: &[f64]| {
            if on_helper() {
                ran.store(true, Ordering::SeqCst);
                if panic_on_helper {
                    panic!("{FAULT}");
                }
            }
            while !ran.load(Ordering::SeqCst) && Instant::now() < deadline {
                thread::sleep(Duration::from_micros(100));
            }
            Gaussian::new(1.0, 1.0).log_pdf(x[0])
        }));
    }
    ep
}

/// A 16-variable chain: observation sites plus adjacent-pair couplings.
fn chain_marginals(threads: usize) -> Vec<(u64, u64)> {
    let n = 16;
    let mut ep =
        ExpectationPropagation::new(vec![Gaussian::new(5.0, 50.0); n], EpConfig::default());
    for v in 0..n {
        let center = 2.0 + v as f64 * 0.25;
        ep.add_site(FnSite::new(vec![v], move |x: &[f64]| {
            Gaussian::new(center, 0.5).log_pdf(x[0])
        }));
    }
    for v in 0..n - 1 {
        ep.add_site(FnSite::new(vec![v, v + 1], |x: &[f64]| {
            Gaussian::new(0.25, 0.1).log_pdf(x[1] - x[0])
        }));
    }
    ep.run_farm(0x5EED, threads);
    (0..n)
        .map(|v| {
            let g = ep.marginal(v);
            (g.mean.to_bits(), g.var.to_bits())
        })
        .collect()
}

#[test]
fn helper_panic_reaches_the_caller_and_the_crew_recovers() {
    if thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("one core: the crew has no helpers, nothing to check");
        return;
    }

    let ran = Arc::new(AtomicBool::new(false));
    let mut faulty = probe_model(ran.clone(), true);
    let caught = catch_unwind(AssertUnwindSafe(|| faulty.run_farm(1, 2)))
        .expect_err("a helper's panic must reach the caller");
    assert!(ran.load(Ordering::SeqCst), "no helper ran a site");
    let msg = caught
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| caught.downcast_ref::<&str>().copied());
    assert_eq!(msg, Some(FAULT), "the helper's own payload is re-raised");

    // No claimed helper leaked: the whole crew is idle again ...
    let status = crew_status();
    assert!(status.helpers >= 1);
    assert_eq!(status.idle, status.helpers, "a helper stayed claimed");

    // ... and alive: it takes a site of the next engine.
    let ran = Arc::new(AtomicBool::new(false));
    probe_model(ran.clone(), false).run_farm(1, 2);
    assert!(ran.load(Ordering::SeqCst), "the helper did not survive");

    // A fresh engine on the same crew matches the single-threaded run.
    assert_eq!(chain_marginals(2), chain_marginals(1));
    let status = crew_status();
    assert_eq!(status.idle, status.helpers);
}
