//! The engine farm's headline guarantee: `run_farm(seed, threads)` is
//! bit-identical for any thread count. Posterior means, variances, sweep
//! counts, convergence flags, and acceptance statistics must all match to
//! the last bit between 1, 2, and 8 workers.

use bayesperf_inference::{
    EpConfig, EpRunStats, ExpectationPropagation, FactorSite, FnSite, Gaussian,
};

/// One farm run's statistics plus every posterior marginal it left behind.
type Run = (EpRunStats, Vec<Gaussian>);

fn run_farm(ep: &mut ExpectationPropagation, seed: u64, threads: usize) -> Run {
    let stats = ep.run_farm(seed, threads);
    (stats, (0..ep.num_vars()).map(|v| ep.marginal(v)).collect())
}

/// A 64-site model shaped like the corrector's chunks: 32 variables in a
/// chain, one observation site per variable, one coupling site per adjacent
/// pair — plenty of conflicts for the coloring to untangle.
fn chain_model() -> ExpectationPropagation {
    let n = 32;
    let prior = vec![Gaussian::new(5.0, 50.0); n];
    let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
    for v in 0..n {
        let center = 2.0 + (v as f64) * 0.25;
        ep.add_site(FnSite::new(vec![v], move |x: &[f64]| {
            Gaussian::new(center, 0.5).log_pdf(x[0])
        }));
    }
    for v in 0..n - 1 {
        ep.add_site(FnSite::new(vec![v, v + 1], |x: &[f64]| {
            Gaussian::new(0.25, 0.1).log_pdf(x[1] - x[0])
        }));
    }
    ep
}

fn run_with_threads(threads: usize) -> Run {
    run_farm(&mut chain_model(), 0xB4FE5, threads)
}

fn assert_bit_identical((a, ma): &Run, (b, mb): &Run, what: &str) {
    assert_eq!(a.sweeps_run, b.sweeps_run, "{what}: sweep count");
    assert_eq!(a.sweeps_total, b.sweeps_total, "{what}: cumulative sweeps");
    assert_eq!(a.converged, b.converged, "{what}: convergence flag");
    assert_eq!(
        a.mean_acceptance.to_bits(),
        b.mean_acceptance.to_bits(),
        "{what}: acceptance"
    );
    assert_eq!(ma.len(), mb.len());
    for (v, (ga, gb)) in ma.iter().zip(mb).enumerate() {
        assert_eq!(
            ga.mean.to_bits(),
            gb.mean.to_bits(),
            "{what}: mean of variable {v} ({} vs {})",
            ga.mean,
            gb.mean
        );
        assert_eq!(
            ga.var.to_bits(),
            gb.var.to_bits(),
            "{what}: var of variable {v}"
        );
    }
}

#[test]
fn bit_identical_across_1_2_8_threads() {
    let t1 = run_with_threads(1);
    let t2 = run_with_threads(2);
    let t8 = run_with_threads(8);
    assert_bit_identical(&t1, &t2, "1 vs 2 threads");
    assert_bit_identical(&t1, &t8, "1 vs 8 threads");
    // And the run must have actually inferred something.
    assert!(t1.0.mean_acceptance > 0.0);
    assert!((t1.1[0].mean - 2.0).abs() < 1.5);
}

#[test]
fn rerun_same_seed_is_reproducible() {
    let a = run_with_threads(3);
    let b = run_with_threads(3);
    assert_bit_identical(&a, &b, "rerun");
}

#[test]
fn different_seeds_differ() {
    let (_, a) = run_farm(&mut chain_model(), 1, 2);
    let (_, b) = run_farm(&mut chain_model(), 2, 2);
    assert!(
        a.iter()
            .zip(&b)
            .any(|(x, y)| x.mean.to_bits() != y.mean.to_bits()),
        "distinct seeds should yield distinct MCMC noise"
    );
}

#[test]
fn warm_start_is_bit_identical_across_1_2_8_threads() {
    // The warm-start lifecycle — run, warm_start (keep messages, re-seat
    // the prior), run again — must stay bit-identical at any thread count:
    // the adaptive-budget decisions derive from cavity history that is
    // merged in deterministic site order, so they are part of the
    // guarantee, not an exception to it.
    let prior = vec![Gaussian::new(5.0, 50.0); 32];
    let run_seq = |threads: usize| -> Run {
        let mut ep = chain_model();
        let _ = run_farm(&mut ep, 0xC0FFEE, threads);
        ep.warm_start(&prior);
        let warm1 = run_farm(&mut ep, 0xC0FFEE + 1, threads);
        assert!(ep.is_warm());
        ep.warm_start(&prior);
        let warm2 = run_farm(&mut ep, 0xC0FFEE + 2, threads);
        // The second warm window must continue from the first's state.
        assert!(warm2.0.sweeps_total > warm2.0.sweeps_run);
        assert_eq!(warm1.1.len(), warm2.1.len());
        warm2
    };
    let t1 = run_seq(1);
    let t2 = run_seq(2);
    let t8 = run_seq(8);
    assert_bit_identical(&t1, &t2, "warm 1 vs 2 threads");
    assert_bit_identical(&t1, &t8, "warm 1 vs 8 threads");
}

#[test]
fn factor_sites_are_bit_identical_across_threads_too() {
    let build = || {
        let n = 12;
        let prior = vec![Gaussian::new(1.0, 25.0); n];
        let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
        for v in 0..n - 1 {
            ep.add_site(
                FactorSite::builder(vec![v, v + 1])
                    .factor(&[0], move |x: &[f64]| {
                        Gaussian::new(v as f64, 0.3).log_pdf(x[0])
                    })
                    .factor(&[0, 1], |x: &[f64]| {
                        Gaussian::new(1.0, 0.05).log_pdf(x[1] - x[0])
                    })
                    .build(),
            );
        }
        ep
    };
    let mut a = build();
    let mut b = build();
    let ra = run_farm(&mut a, 77, 1);
    let rb = run_farm(&mut b, 77, 8);
    assert_bit_identical(&ra, &rb, "factor sites 1 vs 8 threads");
}
