//! Bit-exactness of the factor-cached MCMC kernel against the reference
//! arithmetic it replaces.
//!
//! * The folded observation/temporal/invariant/cavity densities
//!   (`FoldedStudentT`, `FoldedGaussian`) against `StudentT::log_pdf` and
//!   `Gaussian::log_pdf`, over random parameters and real window loads.
//! * Compiled invariant programs (`Expr::compile`) against the tree walk
//!   `Expr::eval` over `x · scale`, zero divisors included.
//! * The cached proposal delta of every `ChunkEngine` slice site against
//!   the two-pass sum `(cav(x′) − cav(x)) + (Σ_adj f(x′) − Σ_adj f(x))`,
//!   along a random sequence of accepted and rejected moves.
//!
//! Every comparison is `to_bits()` equality: the kernel may skip work, but
//! never change a result.

use bayesperf_core::{observation, ChunkEngine, ModelConfig};
use bayesperf_events::{Arch, Catalog, EventId, Expr, Semantic};
use bayesperf_inference::{EpSite, FoldedGaussian, Gaussian, McmcScratch, StudentT, Target};
use bayesperf_simcpu::{pack_round_robin, MultiplexRun, Pmu, PmuConfig, Sample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A log-uniform draw on `[lo, hi]`.
fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    (lo.ln() + rng.gen::<f64>() * (hi.ln() - lo.ln())).exp()
}

/// A point near `center`, up to `spread` widths away, sometimes exactly on it.
fn near(rng: &mut StdRng, center: f64, width: f64, spread: f64) -> f64 {
    if rng.gen::<f64>() < 0.05 {
        center
    } else {
        center + width * spread * (2.0 * rng.gen::<f64>() - 1.0)
    }
}

#[test]
fn folded_densities_match_reference_bits() {
    let mut rng = StdRng::seed_from_u64(0xF01D);
    for _ in 0..20_000 {
        let g = Gaussian::new(
            1e4 * (2.0 * rng.gen::<f64>() - 1.0),
            log_uniform(&mut rng, 1e-10, 1e8),
        );
        let folded = g.folded();
        let x = near(&mut rng, g.mean, g.std_dev(), 50.0);
        assert_eq!(
            folded.log_pdf(x).to_bits(),
            g.log_pdf(x).to_bits(),
            "{g:?} at {x}"
        );

        let t = StudentT::new(
            1e4 * (2.0 * rng.gen::<f64>() - 1.0),
            log_uniform(&mut rng, 1e-12, 1e4),
            log_uniform(&mut rng, 0.1, 2000.0),
        );
        let folded = t.folded();
        let x = near(&mut rng, t.loc, t.scale, 1e3);
        assert_eq!(
            folded.log_pdf(x).to_bits(),
            t.log_pdf(x).to_bits(),
            "{t:?} at {x}"
        );
    }
}

#[test]
fn folded_observations_of_real_windows_match_reference_bits() {
    let (cat, run) = fixture_run(9, 12);
    let mut rng = StdRng::seed_from_u64(0x0B5);
    for s in run.windows.iter().flat_map(|w| &w.samples) {
        let scale = log_uniform(&mut rng, 1.0, 1e6);
        let t = observation(s, scale, 0.02);
        let folded = t.folded();
        for _ in 0..50 {
            let x = near(&mut rng, t.loc, t.scale, 100.0);
            assert_eq!(
                folded.log_pdf(x).to_bits(),
                t.log_pdf(x).to_bits(),
                "{:?} at {x}",
                cat.event(s.event).name
            );
        }
    }
}

/// A random expression over events `0..n`, constants (zero included) and
/// all four operators.
fn random_expr(rng: &mut StdRng, n: u16, depth: u32) -> Expr {
    if depth == 0 || rng.gen::<f64>() < 0.3 {
        return match rng.gen_range(0..4) {
            0 => Expr::konst(0.0),
            1 => Expr::konst(100.0 * (rng.gen::<f64>() - 0.5)),
            _ => Expr::event(EventId::from_raw(rng.gen_range(0..n))),
        };
    }
    let a = random_expr(rng, n, depth - 1);
    let b = random_expr(rng, n, depth - 1);
    match rng.gen_range(0..4) {
        0 => a + b,
        1 => a - b,
        2 => a * b,
        _ => a / b,
    }
}

/// Whether evaluating `expr` under `env` divides by zero somewhere.
fn divides_by_zero(expr: &Expr, env: &impl Fn(EventId) -> f64) -> bool {
    match expr {
        Expr::Const(_) | Expr::Event(_) => false,
        Expr::Div(a, b) => b.eval(env) == 0.0 || divides_by_zero(a, env) || divides_by_zero(b, env),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
            divides_by_zero(a, env) || divides_by_zero(b, env)
        }
    }
}

#[test]
fn compiled_programs_match_tree_evaluation_bits() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let mut zero_divisions = 0;
    for arch in Arch::all() {
        let cat = Catalog::new(arch);
        let n = cat.len();
        // Catalog invariants and derived metrics (the latter carry the
        // divisions), then random expressions.
        let mut exprs: Vec<Expr> = Vec::new();
        for inv in cat.invariants() {
            exprs.push(inv.lhs.clone());
            exprs.push(inv.rhs.clone());
        }
        exprs.extend(cat.derived_events().iter().map(|d| d.expr.clone()));
        exprs.extend((0..400).map(|_| random_expr(&mut rng, n as u16, 4)));
        for expr in &exprs {
            for _ in 0..20 {
                // Some slots exactly zero so divisors vanish.
                let x: Vec<f64> = (0..n)
                    .map(|_| match rng.gen_range(0..5) {
                        0 => 0.0,
                        _ => 10.0 * (2.0 * rng.gen::<f64>() - 1.0),
                    })
                    .collect();
                let scales: Vec<f64> = (0..n).map(|_| log_uniform(&mut rng, 1.0, 1e7)).collect();
                let env = |id: EventId| x[id.index()] * scales[id.index()];
                let program = expr.compile(&|id: EventId| (id.index(), scales[id.index()]));
                assert_eq!(
                    program.eval(&x).to_bits(),
                    expr.eval(&env).to_bits(),
                    "{expr}"
                );
                zero_divisions += usize::from(divides_by_zero(expr, &env));
            }
        }
    }
    assert!(
        zero_divisions > 100,
        "only {zero_divisions} zero divisors hit"
    );
}

/// A multiplexed TeraSort run with a fixed seed.
fn fixture_run(seed: u64, windows: usize) -> (Catalog, MultiplexRun) {
    let cat = Catalog::new(Arch::X86SkyLake);
    let events: Vec<EventId> = [
        Semantic::L1dMisses,
        Semantic::L2References,
        Semantic::L2Misses,
        Semantic::LlcReferences,
        Semantic::LlcMisses,
        Semantic::BrInst,
        Semantic::BrMisp,
        Semantic::UopsIssued,
        Semantic::UopsRetired,
    ]
    .into_iter()
    .map(|s| cat.require(s))
    .collect();
    let schedule = pack_round_robin(&cat, &events).unwrap();
    let mut truth = bayesperf_workloads::by_name("TeraSort")
        .unwrap()
        .instantiate(&cat, seed);
    let pmu = Pmu::new(
        &cat,
        PmuConfig {
            seed,
            ..PmuConfig::for_catalog(&cat)
        },
    );
    let run = pmu.run_multiplexed(&mut truth, &schedule, windows);
    (cat, run)
}

/// An EP tilted target: a slice site's factor view with a cavity as the
/// unary terms — the shape the EP engine hands the sampler.
struct Tilted<'a> {
    site: &'a dyn EpSite,
    cavity: Vec<Gaussian>,
    folded: Vec<FoldedGaussian>,
}

impl Target for Tilted<'_> {
    fn dim(&self) -> usize {
        self.cavity.len()
    }
    fn num_factors(&self) -> usize {
        self.site.num_factors()
    }
    fn factors_of(&self, i: usize) -> &[u32] {
        self.site.factors_of(i)
    }
    fn factor_log_pdf(&self, f: usize, x: &[f64]) -> f64 {
        self.site.factor_log_pdf(f, x)
    }
    fn unary_log_pdf(&self, i: usize, xi: f64) -> f64 {
        self.folded[i].log_pdf(xi)
    }
}

/// The two-pass reference delta: every adjacent factor evaluated at the
/// old and at the new state, each sum from `0.0` in row order, cavity by
/// the unfolded reference density.
fn two_pass_delta(t: &Tilted, x: &[f64], i: usize, new: f64) -> f64 {
    let mut moved = x.to_vec();
    moved[i] = new;
    let sum = |y: &[f64]| {
        t.factors_of(i)
            .iter()
            .fold(0.0, |acc, &f| acc + t.factor_log_pdf(f as usize, y))
    };
    let d_cavity = t.cavity[i].log_pdf(new) - t.cavity[i].log_pdf(x[i]);
    d_cavity + (sum(&moved) - sum(x))
}

#[test]
fn cached_slice_site_deltas_match_two_pass_bits() {
    let (cat, run) = fixture_run(5, 18);
    let windows: Vec<&[Sample]> = run.windows.iter().map(|w| w.samples.as_slice()).collect();
    let cfg = ModelConfig::for_run(&run);
    let mut engine = ChunkEngine::new(&cat, &cfg, cfg.fast_ep());
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    let mut scratch = McmcScratch::new();
    let (mut accepted, mut rejected) = (0, 0);
    for (c, chunk) in windows.chunks(cfg.slices).enumerate() {
        // A fresh window load per chunk: cold first, then warm.
        if c == 0 {
            engine.load_cold(chunk);
        } else {
            engine.load_warm(chunk);
        }
        for t in 0..cfg.slices {
            let site = engine.site(t);
            let d = site.vars().len();
            let cavity: Vec<Gaussian> = (0..d)
                .map(|_| Gaussian::new(rng.gen::<f64>() * 3.0, log_uniform(&mut rng, 1e-4, 10.0)))
                .collect();
            let target = Tilted {
                site,
                folded: cavity.iter().map(Gaussian::folded).collect(),
                cavity,
            };
            let init: Vec<f64> = (0..d)
                .map(|j| site.init_hint(j).unwrap_or(1.0) * (0.9 + 0.2 * rng.gen::<f64>()))
                .collect();
            scratch.seat(&target, &init);
            for _ in 0..3_000 {
                let i = rng.gen_range(0..d);
                let x = scratch.state().to_vec();
                let new = x[i] + 0.05 * (2.0 * rng.gen::<f64>() - 1.0) * x[i].abs().max(0.1);
                let want = two_pass_delta(&target, &x, i, new);
                let got = scratch.propose(&target, i, new);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "chunk {c} slice {t} local {i}: cached {got} vs two-pass {want}"
                );
                assert_eq!(
                    scratch.state(),
                    &x[..],
                    "a proposal must not move the chain"
                );
                if rng.gen::<bool>() {
                    scratch.accept(&target);
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
    }
    assert!(accepted > 1000 && rejected > 1000);
}
