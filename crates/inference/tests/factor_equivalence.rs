//! `FactorSite` must be a drop-in for `FnSite`: on the crate docs' invariant
//! example (x0 + x1 = 10 with x0 observed), the factor-structured site and
//! the closure site define *the same* log-likelihood, so EP with the same
//! deterministic seed must produce bit-identical posteriors — the sparse
//! factor view may skip factors, but never change values.

use bayesperf_inference::{
    EpConfig, EpRunStats, EpSite, ExpectationPropagation, FactorSite, FnSite, Gaussian,
};

/// Runs the engine farm and collects every posterior marginal.
fn run_farm(
    mut ep: ExpectationPropagation,
    seed: u64,
    threads: usize,
) -> (EpRunStats, Vec<Gaussian>) {
    let stats = ep.run_farm(seed, threads);
    (stats, (0..ep.num_vars()).map(|v| ep.marginal(v)).collect())
}

fn fn_site_model() -> ExpectationPropagation {
    let prior = vec![Gaussian::new(5.0, 100.0), Gaussian::new(5.0, 100.0)];
    let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
    ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
        Gaussian::new(3.0, 0.01).log_pdf(x[0])
    }));
    ep.add_site(FnSite::new(vec![0, 1], |x: &[f64]| {
        Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
    }));
    ep
}

fn factor_site_model() -> ExpectationPropagation {
    let prior = vec![Gaussian::new(5.0, 100.0), Gaussian::new(5.0, 100.0)];
    let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
    ep.add_site(
        FactorSite::builder(vec![0])
            .factor(&[0], |x: &[f64]| Gaussian::new(3.0, 0.01).log_pdf(x[0]))
            .build(),
    );
    ep.add_site(
        FactorSite::builder(vec![0, 1])
            .factor(&[0, 1], |x: &[f64]| {
                Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
            })
            .build(),
    );
    ep
}

/// The change of the factors adjacent to local `i` when it moves to `new`,
/// through the factor view: `Σ_row f(x′) − Σ_row f(x)`.
fn row_delta(site: &dyn EpSite, x: &[f64], i: usize, new: f64) -> f64 {
    let mut moved = x.to_vec();
    moved[i] = new;
    let sum = |y: &[f64]| {
        site.factors_of(i)
            .iter()
            .fold(0.0, |acc, &f| acc + site.factor_log_pdf(f as usize, y))
    };
    sum(&moved) - sum(x)
}

#[test]
fn same_likelihood_same_delta() {
    let fn_site = FnSite::new(vec![0, 1], |x: &[f64]| {
        Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
    });
    let factor_site = FactorSite::builder(vec![0, 1])
        .factor(&[0, 1], |x: &[f64]| {
            Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
        })
        .build();
    for (a, b) in [(3.0, 7.0), (0.0, 0.0), (-2.5, 13.1)] {
        let x = [a, b];
        assert_eq!(
            fn_site.log_likelihood(&x).to_bits(),
            factor_site.log_likelihood(&x).to_bits()
        );
        let da = row_delta(&fn_site, &x, 1, b + 0.5);
        let db = row_delta(&factor_site, &x, 1, b + 0.5);
        assert_eq!(da.to_bits(), db.to_bits(), "delta at ({a}, {b})");
    }
}

#[test]
fn ep_posteriors_are_bit_identical() {
    let (ra, ma) = run_farm(fn_site_model(), 42, 1);
    let (rb, mb) = run_farm(factor_site_model(), 42, 1);
    assert_eq!(ra.sweeps_run, rb.sweeps_run);
    assert_eq!(ra.converged, rb.converged);
    for (ga, gb) in ma.iter().zip(&mb) {
        assert_eq!(ga.mean.to_bits(), gb.mean.to_bits());
        assert_eq!(ga.var.to_bits(), gb.var.to_bits());
    }
    // And the inference itself is right: x1 ≈ 10 − 3 = 7.
    assert!((mb[1].mean - 7.0).abs() < 0.5, "x1 {}", mb[1].mean);
}

#[test]
fn multi_factor_split_matches_monolithic_closure() {
    // A site whose likelihood is a *product* of three factors, written
    // once as a single closure and once factored. Sparse evaluation must
    // not change EP results (same seed → bit-identical).
    let monolithic = || {
        let prior = vec![Gaussian::new(0.0, 25.0); 3];
        let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
        ep.add_site(FnSite::new(vec![0, 1, 2], |x: &[f64]| {
            Gaussian::new(1.0, 0.1).log_pdf(x[0])
                + Gaussian::new(0.0, 0.2).log_pdf(x[1] - x[0])
                + Gaussian::new(0.0, 0.2).log_pdf(x[2] - x[1])
        }));
        ep
    };
    let factored = || {
        let prior = vec![Gaussian::new(0.0, 25.0); 3];
        let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
        ep.add_site(
            FactorSite::builder(vec![0, 1, 2])
                .factor(&[0], |x: &[f64]| Gaussian::new(1.0, 0.1).log_pdf(x[0]))
                .factor(&[0, 1], |x: &[f64]| {
                    Gaussian::new(0.0, 0.2).log_pdf(x[1] - x[0])
                })
                .factor(&[1, 2], |x: &[f64]| {
                    Gaussian::new(0.0, 0.2).log_pdf(x[2] - x[1])
                })
                .build(),
        );
        ep
    };
    let (_, ma) = run_farm(monolithic(), 7, 1);
    let (_, mb) = run_farm(factored(), 7, 2);
    for (v, (ga, gb)) in ma.iter().zip(&mb).enumerate() {
        // Factored delta sums a subset of terms, so results agree exactly
        // only when per-factor arithmetic is order-identical; the split
        // changes the summation grouping, so allow float-roundoff scale
        // differences while requiring statistical identity.
        assert!(
            (ga.mean - gb.mean).abs() < 1e-6,
            "var {v}: {} vs {}",
            ga.mean,
            gb.mean
        );
        assert!((ga.var - gb.var).abs() < 1e-6);
    }
}

/// x0 observed near 3; x0 + x1 ≈ 10, as two factors.
fn two_factor_site() -> FactorSite {
    FactorSite::builder(vec![0, 1])
        .factor(&[0], |x: &[f64]| Gaussian::new(3.0, 0.01).log_pdf(x[0]))
        .factor(&[0, 1], |x: &[f64]| {
            Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
        })
        .build()
}

#[test]
fn row_delta_matches_full_recompute() {
    let site = two_factor_site();
    let x = [2.5, 7.1];
    let delta = row_delta(&site, &x, 1, 6.4);
    let full = site.log_likelihood(&[2.5, 6.4]) - site.log_likelihood(&x);
    assert!((delta - full).abs() < 1e-12, "delta {delta} vs {full}");
}

#[test]
fn delta_only_visits_adjacent_factors() {
    // Factor 0 touches only local 0, factor 1 touches both.
    let site = two_factor_site();
    assert_eq!(site.factors_of(0), &[0, 1]);
    assert_eq!(site.factors_of(1), &[1]);
    // Moving local 1 must not evaluate factor 0: make that observable
    // with a factor that panics when evaluated.
    let trap = FactorSite::builder(vec![0, 1])
        .factor(&[0], |_: &[f64]| -> f64 { panic!("factor 0 must not run") })
        .factor(&[1], |x: &[f64]| -x[1] * x[1])
        .build();
    let d = row_delta(&trap, &[0.0, 1.0], 1, 2.0);
    assert!((d - (-4.0 + 1.0)).abs() < 1e-12);
}
