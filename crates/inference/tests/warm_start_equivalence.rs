//! Warm-start correctness: a warm-started engine must converge to the same
//! fixed point as a cold run on the same data.
//!
//! The property is checked on randomized Gaussian-linear chain models
//! (random priors, random per-variable observations, random chain
//! couplings — the same shape as a BayesPerf catalog slice with linear
//! invariants). Every site takes the analytic moment path, so EP is a
//! deterministic fixed-point iteration and — because EP is exact for
//! Gaussian models — both paths converge to the *exact* posterior. Run to
//! a tight tolerance, warm and cold marginals must then agree to within
//! 1e-6 absolute mean / 1e-4 relative variance.

use bayesperf_inference::{
    EpConfig, EpRunStats, ExpectationPropagation, FactorSite, Gaussian, MomentStrategy,
};
use proptest::prelude::*;

/// Runs the engine farm and collects every posterior marginal.
fn run_farm(
    ep: &mut ExpectationPropagation,
    seed: u64,
    threads: usize,
) -> (EpRunStats, Vec<Gaussian>) {
    let stats = ep.run_farm(seed, threads);
    (stats, (0..ep.num_vars()).map(|v| ep.marginal(v)).collect())
}

/// A tight, noise-free EP configuration: analytic sites converge
/// geometrically, so a small tolerance is reachable.
fn tight_config() -> EpConfig {
    EpConfig {
        max_sweeps: 400,
        warm_max_sweeps: 400,
        damping: 0.8,
        tol: 1e-11,
        ..EpConfig::default()
    }
}

/// Builds the chain model: one Gaussian-linear observation per variable,
/// one coupling factor per consecutive pair.
fn build_model(
    priors: &[(f64, f64)],
    obs: &[(f64, f64)],
    couplings: &[(f64, f64)],
) -> ExpectationPropagation {
    let prior: Vec<Gaussian> = priors.iter().map(|&(m, v)| Gaussian::new(m, v)).collect();
    let mut ep = ExpectationPropagation::new(prior, tight_config());
    for (i, &(value, var)) in obs.iter().enumerate() {
        ep.add_site(
            FactorSite::builder(vec![i])
                .gaussian_linear(&[0], &[1.0], value, var)
                .build(),
        );
    }
    for (i, &(diff, var)) in couplings.iter().enumerate() {
        ep.add_site(
            FactorSite::builder(vec![i, i + 1])
                .gaussian_linear(&[0, 1], &[-1.0, 1.0], diff, var)
                .build(),
        );
    }
    ep
}

proptest! {
    /// Warm-started marginals match a cold run on the new window's data.
    #[test]
    fn warm_marginals_match_cold_marginals(
        priors in proptest::collection::vec((-5.0f64..5.0, 0.5f64..10.0), 2..6),
        obs_seed in proptest::collection::vec((-10.0f64..10.0, 0.1f64..2.0), 6..7),
        deltas in proptest::collection::vec(-0.5f64..0.5, 6..7),
        couplings in proptest::collection::vec((-2.0f64..2.0, 0.2f64..2.0), 5..6),
    ) {
        let n = priors.len();
        let obs_a: Vec<(f64, f64)> = obs_seed[..n].to_vec();
        // Window B: the same topology, slightly moved observations.
        let obs_b: Vec<(f64, f64)> = obs_a
            .iter()
            .zip(&deltas)
            .map(|(&(v, var), &d)| (v + d, var))
            .collect();
        let couplings = couplings[..n - 1].to_vec();

        // Warm path: run window A, swap observations to window B in
        // place, warm-start, run again.
        let mut warm_ep = build_model(&priors, &obs_a, &couplings);
        let (warm_a, _) = run_farm(&mut warm_ep, 1, 2);
        prop_assert!(warm_a.converged, "window A must converge");
        for (i, &(value, _)) in obs_b.iter().enumerate() {
            warm_ep
                .site_mut::<FactorSite>(i)
                .expect("observation sites are FactorSites")
                .set_linear_obs(0, value);
        }
        let prior: Vec<Gaussian> = priors.iter().map(|&(m, v)| Gaussian::new(m, v)).collect();
        warm_ep.warm_start(&prior);
        let (warm, warm_m) = run_farm(&mut warm_ep, 2, 2);
        prop_assert!(warm.converged, "warm window B must converge");
        prop_assert_eq!(warm.mcmc_site_updates, 0, "all sites analytic");

        // Cold path: a fresh engine on window B's data.
        let mut cold_ep = build_model(&priors, &obs_b, &couplings);
        let (cold, cold_m) = run_farm(&mut cold_ep, 3, 1);
        prop_assert!(cold.converged, "cold window B must converge");

        for (v, (w, c)) in warm_m.iter().zip(&cold_m).enumerate() {
            prop_assert!(
                (w.mean - c.mean).abs() <= 1e-6,
                "variable {v}: warm mean {} vs cold {}",
                w.mean,
                c.mean
            );
            prop_assert!(
                (w.var - c.var).abs() / c.var <= 1e-4,
                "variable {v}: warm var {} vs cold {}",
                w.var,
                c.var
            );
        }
    }
}

#[test]
fn all_sites_take_the_analytic_path() {
    let ep = build_model(
        &[(0.0, 4.0), (1.0, 2.0)],
        &[(3.0, 1.0), (5.0, 0.5)],
        &[(1.0, 0.3)],
    );
    let _ = ep; // sites checked through the site type directly:
    let site = FactorSite::builder(vec![0])
        .gaussian_linear(&[0], &[1.0], 3.0, 1.0)
        .build();
    assert_eq!(
        bayesperf_inference::EpSite::moment_strategy(&site),
        MomentStrategy::Analytic
    );
}
