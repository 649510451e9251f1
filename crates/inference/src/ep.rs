//! Expectation Propagation over partitioned likelihoods (Alg. 1 of the
//! paper), executed by a software "EP engine farm".
//!
//! The target density factorizes as `f(θ) = Π fₖ(θ)` where each `fₖ` is the
//! likelihood of the data captured in one partition — for BayesPerf, one
//! scheduled HPC configuration / time slice. EP maintains a global Gaussian
//! mean-field approximation `g(θ) = prior · Π gₖ(θ)` and iterates:
//!
//! 1. cavity: `g₋ₖ ∝ g / gₖ`
//! 2. tilted: `g\ₖ ∝ Pr(yₖ|θ) · g₋ₖ` — moments estimated by MCMC, or in
//!    closed form when the site is Gaussian-linear (see below)
//! 3. local update: moment-match a Gaussian to the tilted distribution
//! 4. global update: `g ← g · Δgₖ` with damping
//!
//! # The MCMC proposal path
//!
//! A site is a factor view: [`EpSite::factors_of`] is the CSR row of
//! factors adjacent to a local variable, [`EpSite::factor_log_pdf`]
//! evaluates one factor. An MCMC site update hands the sampler those
//! factors plus the cavity as per-variable unary terms, its `x`-free terms
//! folded once per update ([`FoldedGaussian`]). The sampler caches every
//! factor's value and commits a proposal's re-evaluated factors only on
//! accept ([`McmcScratch`](crate::McmcScratch)): one evaluation of the
//! moved variable's adjacent factors per proposal, with posteriors
//! bit-identical to re-evaluating both sides.
//!
//! # The batched-parallel sweep schedule
//!
//! Sites only interact through the global approximation — the parallelism
//! the BayesPerf accelerator's EP engines exploit (§5). The software farm
//! ([`ExpectationPropagation::run_farm`]) realizes it in three steps:
//!
//! 1. **Conflict-free batching.** Sites are partitioned by greedy coloring
//!    of the site-conflict graph (two sites conflict when their variable
//!    scopes intersect; see [`SweepSchedule`]). Within a batch, updates
//!    touch disjoint variables, so Jacobi-style batch application equals
//!    the sequential Gauss-Seidel order exactly.
//! 2. **Parallel compute, ordered merge.** Each sweep walks the batches.
//!    The calling thread claims up to `threads − 1` idle helpers of the
//!    process-wide farm crew — persistent threads, `available_parallelism()
//!    − 1` of them however many engines share the process, never waited
//!    for — and every participant takes the batch's sites through one
//!    shared atomic index, writing each into the site's own [`SiteUpdate`]
//!    record. The driver then merges the records into the global
//!    approximation sequentially in ascending site order. The merge is
//!    cheap (a handful of message writes per site); all MCMC work happens
//!    in the parallel phase.
//! 3. **Counter-based RNG streams.** Every site update draws from its own
//!    [`SiteRng`] stream, keyed by `(seed, site, sweep)` — no shared
//!    sequential generator.
//!
//! # Determinism guarantee
//!
//! Because the schedule is a pure function of the site list, each site's
//! randomness is a pure function of `(seed, site, sweep)`, batch members
//! read disjoint state, and merges happen in a fixed order,
//! `run_farm(seed, threads)` leaves **bit-identical** marginals and
//! returns bit-identical [`EpRunStats`] for any `threads ≥ 1`, and for
//! any assignment of sites to threads. Thread count is purely a
//! throughput knob — the `parallel_determinism` integration test pins
//! this down. The guarantee extends to warm-started runs: the adaptive
//! MCMC budget is derived from per-site cavity history that is itself
//! updated in deterministic merge order.
//!
//! # Warm-start lifecycle
//!
//! A `Corrector` that slides across multiplexing windows solves a sequence
//! of *nearly identical* inference problems: the factor-graph topology is a
//! pure function of the event catalog, only the observed counts move. The
//! engine is therefore built to be **reused**, not rebuilt:
//!
//! ```text
//!   build once            per window                     per window
//!   ──────────            ───────────                    ───────────
//!   new() + add_site()    site_mut() — swap observations  run_farm()
//!        │                warm_start(prior) — keep            │
//!        ▼                site messages, re-seat prior        ▼
//!   first run_farm()      (or cold_reset() to discard)    marginal()
//! ```
//!
//! * [`ExpectationPropagation::warm_start`] re-seats the per-variable prior
//!   (e.g. the chained prior from the previous window's posterior), keeps
//!   all site messages and rebuilds the global approximation as
//!   `prior · Π site messages`. Because the previous window's messages
//!   already approximate the new window's likelihoods, warm runs converge
//!   in 1–2 sweeps (capped by [`EpConfig::warm_max_sweeps`]) instead of the
//!   cold sweep budget.
//! * The **adaptive MCMC budget** ([`EpConfig::adaptive`]) shrinks the
//!   per-site chain to [`AdaptiveBudget`]'s floor when the site's cavity
//!   barely moved since its previous update (measured by
//!   [`GaussianMessage::moments_shift`]); cold starts and post-swap jumps
//!   keep the full configured budget. Sites whose cavity *jumped* past
//!   [`AdaptiveBudget::jump_tol`] vote to extend the warm run by an extra
//!   sweep ([`EpConfig::warm_escalation`]).
//! * [`ExpectationPropagation::reset_site`] selectively discards one
//!   site's messages — the warm-started corrector applies it to the
//!   slices of a detected data phase change, re-solving just those from
//!   scratch while the rest of the window stays warm.
//! * [`ExpectationPropagation::cold_reset`] discards all messages (vacuous
//!   approximation, global = prior) while **keeping** the cached sweep
//!   schedule, site-update records and per-site workspaces — the
//!   structural reuse every cold chunk load relies on.
//! * Sites whose tilted distribution is exactly Gaussian
//!   ([`MomentStrategy::Analytic`], e.g. [`FactorSite`](crate::FactorSite)s
//!   made of linear-Gaussian / high-count-Poisson factors) bypass MCMC
//!   entirely and compute moments by a site-local Cholesky solve.
//!
//! The hot path is allocation-free after warm-up, on the driver and the
//! crew alike: the sweep schedule, per-site [`SiteWorkspace`] buffers
//! (cavity state, MCMC scratch, analytic scratch) and per-site
//! [`SiteUpdate`] records are cached inside the engine and reused across
//! sweeps *and* across windows.

use crate::analytic::AnalyticScratch;
use crate::dist::{FoldedGaussian, Gaussian};
use crate::farm;
use crate::mcmc::{McmcConfig, McmcSampler, Target};
use crate::message::GaussianMessage;
use crate::parallel::{SiteSlot, SiteUpdate, SiteWorkspace, SweepSchedule};
use crate::rng::SiteRng;
use std::sync::Mutex;

/// How a site's tilted moments are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MomentStrategy {
    /// Estimate moments by running the site's MCMC chain (the general
    /// path; any log-likelihood).
    Mcmc,
    /// Compute moments in closed form — valid when the site's likelihood
    /// is Gaussian in a linear transform of its variables, so the tilted
    /// distribution `cavity × likelihood` is exactly Gaussian.
    Analytic,
}

/// One partition of the data: a likelihood term over a subset of the global
/// variables.
pub trait EpSite {
    /// Indices of the global variables this site's likelihood touches.
    fn vars(&self) -> &[usize];

    /// Number of likelihood factors.
    fn num_factors(&self) -> usize;

    /// The factors adjacent to local variable `i`, in a fixed order (a CSR
    /// row): every factor that reads `x[i]` must be listed. A move of `i`
    /// re-evaluates only these — the locality the BayesPerf accelerator
    /// exploits.
    fn factors_of(&self, i: usize) -> &[u32];

    /// Log density of factor `f` given the site-local state `x` (aligned
    /// with [`EpSite::vars`]).
    fn factor_log_pdf(&self, f: usize, x: &[f64]) -> f64;

    /// Log likelihood of the site's data: the sum of all factors.
    fn log_likelihood(&self, x: &[f64]) -> f64 {
        (0..self.num_factors())
            .map(|f| self.factor_log_pdf(f, x))
            .sum()
    }

    /// Optional MCMC initialization hint for local variable `i` (e.g. the
    /// scaled observation of that counter). `None` starts at the cavity
    /// mean.
    fn init_hint(&self, i: usize) -> Option<f64> {
        let _ = i;
        None
    }

    /// Optional proposal-scale hint for local variable `i` (e.g. the
    /// observation factor's width). `None` uses the cavity standard
    /// deviation.
    fn scale_hint(&self, i: usize) -> Option<f64> {
        let _ = i;
        None
    }

    /// How this site's tilted moments should be computed. Sites returning
    /// [`MomentStrategy::Analytic`] must also implement
    /// [`EpSite::analytic_moments`].
    fn moment_strategy(&self) -> MomentStrategy {
        MomentStrategy::Mcmc
    }

    /// Computes the tilted moments in closed form into `ws` (read back via
    /// [`AnalyticScratch::mean`]/[`AnalyticScratch::var`]). Returns `false`
    /// to decline — the driver then falls back to MCMC, so a conservative
    /// implementation may bail on numerically degenerate cavities.
    fn analytic_moments(&self, cavity: &[Gaussian], ws: &mut AnalyticScratch) -> bool {
        let _ = (cavity, ws);
        false
    }
}

/// Object-safe site storage: [`EpSite`] plus `Any` for typed mutable access
/// (the warm-start observation swap) — implemented for every concrete site
/// automatically.
trait SiteObj: EpSite + Send + Sync {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<S: EpSite + Send + Sync + 'static> SiteObj for S {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// An [`EpSite`] built from a closure: one factor over all its variables.
#[derive(Debug, Clone)]
pub struct FnSite<F> {
    vars: Vec<usize>,
    f: F,
}

impl<F: Fn(&[f64]) -> f64> FnSite<F> {
    /// Creates a site over `vars` with log-likelihood `f`.
    ///
    /// # Panics
    ///
    /// Panics if `vars` contains duplicates.
    pub fn new(vars: Vec<usize>, f: F) -> Self {
        let mut sorted = vars.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), vars.len(), "site variables must be unique");
        FnSite { vars, f }
    }
}

impl<F: Fn(&[f64]) -> f64> EpSite for FnSite<F> {
    fn vars(&self) -> &[usize] {
        &self.vars
    }
    fn num_factors(&self) -> usize {
        1
    }
    fn factors_of(&self, _: usize) -> &[u32] {
        &[0]
    }
    fn factor_log_pdf(&self, _: usize, x: &[f64]) -> f64 {
        (self.f)(x)
    }
}

/// Floor budget and trigger threshold for the adaptive MCMC budget of
/// warm-started runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveBudget {
    /// Cavity movement (per [`GaussianMessage::moments_shift`], averaged
    /// over the site's variables) below which the floor budget applies.
    /// EP-with-MCMC churns individual weak variables by ~1 normalized unit
    /// per sweep even at a fixed point, so the useful threshold sits above
    /// that churn floor: a genuine window-to-window data jump moves many
    /// observed variables at once and pushes the mean past it.
    pub move_tol: f64,
    /// Single-variable jump threshold: if *any* of the site's variables
    /// moved past this (far above the churn tail), the site takes the full
    /// budget regardless of the diluted mean, and casts a "hot" vote
    /// toward sweep escalation ([`EpConfig::warm_escalation`]). This is
    /// what catches a data phase change that only touches a few observed
    /// variables of a wide site.
    pub jump_tol: f64,
    /// Floor burn-in sweeps.
    pub burn_in: usize,
    /// Floor sample sweeps.
    pub samples: usize,
}

impl Default for AdaptiveBudget {
    fn default() -> Self {
        AdaptiveBudget {
            move_tol: 2.0,
            jump_tol: 40.0,
            burn_in: 25,
            samples: 60,
        }
    }
}

/// Configuration of the EP driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpConfig {
    /// Maximum outer sweeps over all sites (cold runs).
    pub max_sweeps: usize,
    /// Maximum outer sweeps for warm-started runs (after
    /// [`ExpectationPropagation::warm_start`]) — warm runs start near the
    /// fixed point, so 1–2 sweeps usually suffice.
    pub warm_max_sweeps: usize,
    /// Damping factor η ∈ (0, 1] for site/global updates.
    pub damping: f64,
    /// Convergence tolerance: maximum |Δmean|/σ across variables per sweep.
    pub tol: f64,
    /// Variance floor applied to tilted moments (guards MCMC degeneracy).
    pub min_var: f64,
    /// Per-variable site-message precision ceiling, as a multiple of the
    /// variable's prior precision. Noisy tilted-variance estimates can
    /// otherwise ratchet site precisions toward infinity across sweeps
    /// (and, warm-started, across windows): an under-measured variance
    /// tightens the cavity, which shrinks the next chain's proposals,
    /// which under-measures again. The ceiling bounds the feedback loop
    /// while leaving legitimately tight observations (a few orders above
    /// the prior precision) untouched.
    pub max_precision_ratio: f64,
    /// MCMC settings used for tilted-moment estimation (the full budget).
    pub mcmc: McmcConfig,
    /// Adaptive MCMC budget for warm-started runs: sites whose cavity
    /// barely moved since their previous update shrink to the floor
    /// budget. `None` disables adaptation; cold runs always use the full
    /// budget either way.
    pub adaptive: Option<AdaptiveBudget>,
    /// Exponential forgetting applied by
    /// [`ExpectationPropagation::warm_start`]: every site message's
    /// natural parameters are scaled by this factor (`1.0` = keep all
    /// information, smaller = wider starting approximation). A sliding
    /// window *replaces* its observations, so the messages fitted to the
    /// previous window are partially stale — decaying them lets the new
    /// window's data dominate within the short warm sweep budget instead
    /// of fighting an overconfident carried-over posterior at data phase
    /// changes. The decay only moves the starting point, not the fixed
    /// point: run to convergence, warm still matches cold.
    pub warm_decay: f64,
    /// Sweep-escalation threshold for warm runs, as a fraction of the
    /// sweep's MCMC site updates that cast a "hot" vote (some variable's
    /// cavity jumped past [`AdaptiveBudget::jump_tol`], or the site was
    /// selectively reset). When a warm run reaches `warm_max_sweeps` and
    /// at least this fraction of the last sweep's sites were hot, it runs
    /// **one** extra polishing sweep (never beyond `max_sweeps`) — reset
    /// sites re-fit in their first full-budget update, so a single extra
    /// sweep recovers most of the cold refinement at a fraction of its
    /// cost, while quiet windows keep the 1–2 sweep fast path. Values
    /// above 1.0 disable escalation; escalation is also inert when
    /// [`EpConfig::adaptive`] is `None` (no votes are cast).
    pub warm_escalation: f64,
}

impl Default for EpConfig {
    fn default() -> Self {
        EpConfig {
            max_sweeps: 6,
            warm_max_sweeps: 6,
            damping: 0.6,
            tol: 0.02,
            min_var: 1e-10,
            max_precision_ratio: 1e6,
            mcmc: McmcConfig::default(),
            adaptive: Some(AdaptiveBudget::default()),
            warm_decay: 1.0,
            warm_escalation: 0.25,
        }
    }
}

/// Per-run scalar statistics returned by
/// [`ExpectationPropagation::run_farm`]; read the posterior back through
/// [`ExpectationPropagation::marginal`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpRunStats {
    /// Cumulative sweeps executed since engine creation / last
    /// [`ExpectationPropagation::cold_reset`] (grows across warm windows).
    pub sweeps_total: usize,
    /// Sweeps executed by this run only.
    pub sweeps_run: usize,
    /// Whether the tolerance was met before the sweep cap.
    pub converged: bool,
    /// Proposal-weighted mean MCMC acceptance rate across the MCMC-path
    /// site updates of this run; `0.0` (not NaN) when every site took the
    /// analytic path.
    pub mean_acceptance: f64,
    /// Site updates that estimated moments by MCMC.
    pub mcmc_site_updates: u64,
    /// Site updates that computed moments analytically (no sampling).
    pub analytic_site_updates: u64,
    /// Total MCMC samples collected across all site updates of this run.
    pub mcmc_samples: u64,
    /// Site updates whose tilted moments came back non-finite and were
    /// quarantined back to the prior instead of merged (the typed
    /// divergence counter — nonzero means an observation or chain
    /// diverged and was contained, not propagated).
    pub sites_quarantined: u64,
}

/// Cached farm state: the conflict-free sweep schedule plus one
/// [`SiteSlot`] per site, grouped by batch in schedule order — built on
/// first use and reused across runs (and, for a warm-started corrector,
/// across windows).
struct FarmCache {
    schedule: SweepSchedule,
    slots: Vec<Vec<Mutex<SiteSlot>>>,
}

/// A slot is poisoned only by a panicking site update. The farm re-raises
/// that panic before the merge, and the unwind drops the taken-out cache,
/// so no poisoned slot is ever locked again.
const POISONED: &str = "site slot poisoned by a panic the farm re-raises";

/// Running aggregates of one run's site updates.
#[derive(Default)]
struct RunAccum {
    proposed: u64,
    accepted: u64,
    mcmc_updates: u64,
    analytic_updates: u64,
    mcmc_samples: u64,
    quarantined: u64,
}

impl RunAccum {
    fn absorb(&mut self, out: &SiteUpdate) {
        if out.quarantined {
            self.quarantined += 1;
            return;
        }
        if out.used_mcmc {
            self.mcmc_updates += 1;
            self.mcmc_samples += out.mcmc_samples as u64;
            self.proposed += out.proposed;
            self.accepted += out.accepted_n;
        } else {
            self.analytic_updates += 1;
        }
    }

    fn mean_acceptance(&self) -> f64 {
        if self.proposed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposed as f64
        }
    }
}

/// One sweep's adaptive-budget vote tally — the sweep-escalation signal.
#[derive(Default)]
struct SweepVotes {
    mcmc_updates: usize,
    full_budget_votes: usize,
}

impl SweepVotes {
    fn absorb(&mut self, out: &SiteUpdate) {
        if out.used_mcmc {
            self.mcmc_updates += 1;
            if out.full_budget_vote {
                self.full_budget_votes += 1;
            }
        }
    }

    /// Whether at least `frac` of the sweep's MCMC site updates (and at
    /// least one) voted for the full budget.
    fn hot(&self, frac: f64) -> bool {
        self.full_budget_votes > 0
            && self.full_budget_votes as f64 >= frac * self.mcmc_updates as f64
    }
}

/// The EP driver: owns the prior, the sites, and the evolving global
/// approximation.
pub struct ExpectationPropagation {
    prior: Vec<Gaussian>,
    global: Vec<GaussianMessage>,
    sites: Vec<Box<dyn SiteObj>>,
    site_approx: Vec<Vec<GaussianMessage>>,
    /// Cavity snapshot from each site's previous update (empty until the
    /// site has been updated once) — the adaptive-budget movement baseline.
    site_prev_cavity: Vec<Vec<GaussianMessage>>,
    config: EpConfig,
    cache: Option<FarmCache>,
    total_sweeps: usize,
    /// Whether the current messages carry over from a previous window
    /// (set by [`ExpectationPropagation::warm_start`]).
    warm: bool,
}

impl std::fmt::Debug for ExpectationPropagation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpectationPropagation")
            .field("num_vars", &self.prior.len())
            .field("num_sites", &self.sites.len())
            .field("warm", &self.warm)
            .field("config", &self.config)
            .finish()
    }
}

impl ExpectationPropagation {
    /// Creates a driver with the given per-variable Gaussian prior.
    pub fn new(prior: Vec<Gaussian>, config: EpConfig) -> Self {
        let global = prior.iter().map(GaussianMessage::from_gaussian).collect();
        ExpectationPropagation {
            prior,
            global,
            sites: Vec::new(),
            site_approx: Vec::new(),
            site_prev_cavity: Vec::new(),
            config,
            cache: None,
            total_sweeps: 0,
            warm: false,
        }
    }

    /// Number of global variables.
    pub fn num_vars(&self) -> usize {
        self.prior.len()
    }

    /// Number of registered sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Whether the next run is warm-started (messages carried over from a
    /// previous window).
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// Registers a site (initialized with the vacuous approximation).
    ///
    /// Sites must be `Send + Sync` so the engine farm can update them from
    /// crew threads.
    ///
    /// # Panics
    ///
    /// Panics if the site references a variable out of range.
    pub fn add_site<S: EpSite + Send + Sync + 'static>(&mut self, site: S) {
        for &v in site.vars() {
            assert!(v < self.prior.len(), "site variable {v} out of range");
        }
        self.site_approx
            .push(vec![GaussianMessage::uniform(); site.vars().len()]);
        self.site_prev_cavity.push(Vec::new());
        self.sites.push(Box::new(site));
        // Topology changed: the cached schedule and update records are
        // stale.
        self.cache = None;
    }

    /// Typed mutable access to site `k` — the warm-start observation swap.
    ///
    /// Returns `None` if `k` is out of range or the site is not an `S`.
    /// The caller must only mutate per-window *data* (observed values,
    /// hints); the variable scope must stay fixed, since the cached sweep
    /// schedule depends on it.
    pub fn site_mut<S: EpSite + Send + Sync + 'static>(&mut self, k: usize) -> Option<&mut S> {
        self.sites.get_mut(k)?.as_any_mut().downcast_mut::<S>()
    }

    /// Site `k` (read-only; diagnostics and kernel tests).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn site(&self, k: usize) -> &dyn EpSite {
        self.sites[k].as_ref()
    }

    /// The current posterior marginal of variable `v` (prior if no update
    /// has touched it).
    pub fn marginal(&self, v: usize) -> Gaussian {
        self.global[v].to_gaussian().unwrap_or(self.prior[v])
    }

    /// The conflict-free batch schedule the engine farm would run — exposed
    /// for diagnostics and benchmarks.
    pub fn sweep_schedule(&self) -> SweepSchedule {
        SweepSchedule::for_scopes(self.prior.len(), self.sites.iter().map(|s| s.vars()))
    }

    /// Prepares the engine for the next window of a sliding-window
    /// sequence: re-seats the per-variable prior (length must match),
    /// **keeps** every site message, and rebuilds the global approximation
    /// as `prior · Π site messages`. Subsequent runs are warm: they start
    /// from the previous window's approximation, are capped at
    /// [`EpConfig::warm_max_sweeps`], and may shrink per-site MCMC budgets
    /// via [`EpConfig::adaptive`].
    ///
    /// Swap the new window's observations into the sites (via
    /// [`ExpectationPropagation::site_mut`]) before or after this call,
    /// but before the next run.
    ///
    /// # Panics
    ///
    /// Panics if `prior.len() != self.num_vars()`.
    pub fn warm_start(&mut self, prior: &[Gaussian]) {
        assert_eq!(prior.len(), self.prior.len(), "prior length mismatch");
        self.prior.copy_from_slice(prior);
        // Exponential forgetting: scale every site message's natural
        // parameters so stale observation information fades (see
        // [`EpConfig::warm_decay`]). A no-op at the default 1.0.
        let decay = self.config.warm_decay;
        if decay < 1.0 {
            for msgs in &mut self.site_approx {
                for m in msgs {
                    m.precision *= decay;
                    m.mean_times_precision *= decay;
                }
            }
        }
        self.rebuild_global();
        self.warm = true;
    }

    /// Resets a single site's statistical state: its messages become
    /// vacuous and its cavity history clears, so its next update runs with
    /// the full MCMC budget (and votes for sweep escalation) while every
    /// other site stays warm. This is the *selective* restart a
    /// sliding-window corrector applies to the slices of a detected data
    /// jump — the stale, confidently-wrong messages about the jumped
    /// window are discarded without paying a whole-model cold start.
    ///
    /// Call before [`ExpectationPropagation::warm_start`] (which rebuilds
    /// the global approximation from the surviving messages).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn reset_site(&mut self, k: usize) {
        for m in &mut self.site_approx[k] {
            *m = GaussianMessage::uniform();
        }
        self.site_prev_cavity[k].clear();
    }

    /// Discards all statistical state — site messages become vacuous, the
    /// global approximation returns to the (new) prior, cavity history and
    /// the sweep counter reset — while keeping the cached sweep schedule
    /// and buffers. The next run is cold (full budgets), but pays no
    /// topology or allocation cost: this is the structural-reuse path
    /// every cold chunk load takes.
    ///
    /// # Panics
    ///
    /// Panics if `prior.len() != self.num_vars()`.
    pub fn cold_reset(&mut self, prior: &[Gaussian]) {
        assert_eq!(prior.len(), self.prior.len(), "prior length mismatch");
        self.prior.copy_from_slice(prior);
        for msgs in &mut self.site_approx {
            for m in msgs {
                *m = GaussianMessage::uniform();
            }
        }
        for pc in &mut self.site_prev_cavity {
            pc.clear();
        }
        for (g, p) in self.global.iter_mut().zip(&self.prior) {
            *g = GaussianMessage::from_gaussian(p);
        }
        self.total_sweeps = 0;
        self.warm = false;
    }

    /// Rebuilds `global[v] = prior[v] · Π site messages touching v`.
    fn rebuild_global(&mut self) {
        for (g, p) in self.global.iter_mut().zip(&self.prior) {
            *g = GaussianMessage::from_gaussian(p);
        }
        for (site, approx) in self.sites.iter().zip(&self.site_approx) {
            for (&v, m) in site.vars().iter().zip(approx) {
                self.global[v] = self.global[v].mul(m);
            }
        }
    }

    /// Runs EP on the engine farm: conflict-free batches of site updates
    /// computed on the calling thread plus up to `threads − 1` idle helpers
    /// of the process-wide farm crew, merged deterministically.
    /// Allocation-free once the engine caches are grown; read marginals
    /// back through [`ExpectationPropagation::marginal`].
    ///
    /// The result is **bit-identical for any `threads ≥ 1`** given the same
    /// `seed` — see the module docs for why. `threads` is a ceiling: a
    /// batch of `n` sites claims at most `n − 1` helpers, and only those
    /// that are idle at that moment (`threads ≤ 1` claims none).
    pub fn run_farm(&mut self, seed: u64, threads: usize) -> EpRunStats {
        self.ensure_cache();
        let mut cache = self.cache.take().expect("cache just ensured");
        let helpers = threads.saturating_sub(1);
        let sampler = McmcSampler::new(self.config.mcmc);

        let mut sweeps = 0;
        let mut converged = false;
        let mut accum = RunAccum::default();
        let mut hot = false;

        while self.keep_sweeping(sweeps, hot) {
            let sweep = self.total_sweeps + sweeps;
            sweeps += 1;
            let mut max_shift = 0.0f64;
            let mut votes = SweepVotes::default();
            for (b, slots) in cache.slots.iter_mut().enumerate() {
                let batch = cache.schedule.batch(b);
                let ctx = SweepCtx {
                    sites: &self.sites,
                    site_approx: &self.site_approx,
                    site_prev_cavity: &self.site_prev_cavity,
                    global: &self.global,
                    prior: &self.prior,
                    config: &self.config,
                    sampler: &sampler,
                    warm: self.warm,
                    hot_prev: hot,
                    seed,
                    sweep,
                };
                farm::for_each(batch.len(), helpers, &|i| {
                    let mut slot = slots[i].lock().expect(POISONED);
                    ctx.update(batch[i] as usize, &mut slot);
                });
                // Deterministic merge: ascending site order within the
                // batch, regardless of which thread computed what.
                for (&k, slot) in batch.iter().zip(slots.iter_mut()) {
                    let out = &slot.get_mut().expect(POISONED).out;
                    let shift = self.apply_site_update(k as usize, out);
                    max_shift = max_shift.max(shift);
                    accum.absorb(out);
                    votes.absorb(out);
                }
            }
            hot = votes.hot(self.config.warm_escalation);
            if max_shift <= self.config.tol {
                converged = true;
                break;
            }
        }
        self.total_sweeps += sweeps;
        self.cache = Some(cache);

        self.stats(sweeps, converged, &accum)
    }

    /// Whether another sweep should run, given how many already did and
    /// whether the previous sweep was "hot" (enough adaptive-budget votes
    /// for the full budget — the data-jump signal). Cold runs sweep to
    /// `max_sweeps`; warm runs stop at `warm_max_sweeps` unless hot, in
    /// which case they escalate by one extra sweep (capped by the cold
    /// budget) — reset sites re-fit in their first full-budget update, so
    /// one polishing sweep recovers most of the cold path's refinement at
    /// a fraction of its cost.
    fn keep_sweeping(&self, sweeps: usize, hot: bool) -> bool {
        if !self.warm {
            return sweeps < self.config.max_sweeps;
        }
        if sweeps < self.config.warm_max_sweeps {
            return true;
        }
        hot && sweeps < (self.config.warm_max_sweeps + 1).min(self.config.max_sweeps)
    }

    /// Builds the schedule and the per-site slots if missing.
    fn ensure_cache(&mut self) {
        if self.cache.is_some() {
            return;
        }
        let schedule = self.sweep_schedule();
        let slots = schedule
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .map(|&k| {
                        let mut slot = SiteSlot::default();
                        slot.out.prepare(self.sites[k as usize].as_ref());
                        Mutex::new(slot)
                    })
                    .collect()
            })
            .collect();
        self.cache = Some(FarmCache { schedule, slots });
    }

    /// Merges one staged site update into the global approximation.
    /// Returns the largest normalized posterior-mean shift it caused.
    fn apply_site_update(&mut self, k: usize, out: &SiteUpdate) -> f64 {
        if out.quarantined {
            return self.quarantine_site(k, out);
        }
        let mut max_shift = 0.0f64;
        for (j, &v) in out.scope.iter().enumerate() {
            if !out.accepted[j] {
                continue;
            }
            let g_old = self.global[v].to_gaussian().unwrap_or(self.prior[v]);
            if let Some(g_new) = out.global_new[j].to_gaussian() {
                let shift = (g_new.mean - g_old.mean).abs() / g_old.std_dev().max(1e-12);
                max_shift = max_shift.max(shift);
            }
            self.global[v] = out.global_new[j];
            self.site_approx[k][j] = out.damped[j];
        }
        // Record the cavity this update saw — the movement baseline the
        // adaptive budget compares against next time this site updates.
        let prev = &mut self.site_prev_cavity[k];
        prev.clear();
        prev.extend_from_slice(&out.cavity);
        max_shift
    }

    /// Removes a diverged site's contribution from the global
    /// approximation and resets its messages to vacuous — the factor-graph
    /// equivalent of dropping the poisoned observation back to the prior.
    /// Its cavity history clears too, so the site re-fits with the full
    /// budget on its next (hopefully finite) update. Returns the shift the
    /// stripping caused so convergence accounting stays honest.
    fn quarantine_site(&mut self, k: usize, out: &SiteUpdate) -> f64 {
        let mut max_shift = 0.0f64;
        for (j, &v) in out.scope.iter().enumerate() {
            let g_old = self.global[v].to_gaussian().unwrap_or(self.prior[v]);
            let stripped = self.global[v].div(&self.site_approx[k][j]);
            self.global[v] = if stripped.is_proper() {
                stripped
            } else {
                GaussianMessage::from_gaussian(&self.prior[v])
            };
            if let Some(g_new) = self.global[v].to_gaussian() {
                let shift = (g_new.mean - g_old.mean).abs() / g_old.std_dev().max(1e-12);
                max_shift = max_shift.max(shift);
            }
            self.site_approx[k][j] = GaussianMessage::uniform();
        }
        self.site_prev_cavity[k].clear();
        max_shift
    }

    fn stats(&self, sweeps: usize, converged: bool, accum: &RunAccum) -> EpRunStats {
        EpRunStats {
            sweeps_total: self.total_sweeps,
            sweeps_run: sweeps,
            converged,
            mean_acceptance: accum.mean_acceptance(),
            mcmc_site_updates: accum.mcmc_updates,
            analytic_site_updates: accum.analytic_updates,
            mcmc_samples: accum.mcmc_samples,
            sites_quarantined: accum.quarantined,
        }
    }
}

/// The read-only state the site updates of one batch share.
struct SweepCtx<'a> {
    sites: &'a [Box<dyn SiteObj>],
    site_approx: &'a [Vec<GaussianMessage>],
    site_prev_cavity: &'a [Vec<GaussianMessage>],
    global: &'a [GaussianMessage],
    prior: &'a [Gaussian],
    config: &'a EpConfig,
    sampler: &'a McmcSampler,
    warm: bool,
    /// Whether the previous sweep was "hot" (see `keep_sweeping`).
    hot_prev: bool,
    seed: u64,
    sweep: usize,
}

impl SweepCtx<'_> {
    /// Computes site `k`'s update into its slot, on the site's own
    /// counter-based RNG stream.
    fn update(&self, k: usize, slot: &mut SiteSlot) {
        let mut rng = SiteRng::for_site(self.seed, k, self.sweep);
        slot.out.prepare(self.sites[k].as_ref());
        compute_site_update(self, k, &mut rng, &mut slot.ws, &mut slot.out);
    }
}

/// One site update (lines 3–7 of Alg. 1), staged into `out` without
/// touching shared state — the pure-compute half the engine farm runs in
/// parallel. `out` must already be [`SiteUpdate::prepare`]d for site `k`.
fn compute_site_update(
    ctx: &SweepCtx<'_>,
    k: usize,
    rng: &mut SiteRng,
    ws: &mut SiteWorkspace,
    out: &mut SiteUpdate,
) {
    let SweepCtx {
        global,
        prior,
        config,
        sampler,
        warm,
        hot_prev,
        ..
    } = *ctx;
    let site = ctx.sites[k].as_ref();
    let approx_k = &ctx.site_approx[k][..];
    let prev_cavity_k = &ctx.site_prev_cavity[k][..];
    let SiteWorkspace {
        cavity_msgs,
        cavity,
        cavity_folded,
        init,
        scales,
        scratch,
        analytic,
    } = ws;
    let scope = site.vars();

    // Line 3: cavity distribution g₋ₖ = g / gₖ, with a widened-prior
    // fallback when the quotient is improper.
    cavity_msgs.clear();
    cavity.clear();
    for (j, &v) in scope.iter().enumerate() {
        let msg = global[v].div(&approx_k[j]);
        let gauss = msg.to_gaussian().unwrap_or_else(|| {
            let p = prior[v];
            let mean = global[v].to_gaussian().unwrap_or(p).mean;
            Gaussian::new(mean, p.var * 100.0)
        });
        cavity_msgs.push(GaussianMessage::from_gaussian(&gauss));
        cavity.push(gauss);
    }
    // Snapshot the cavity for the engine's per-site movement history.
    out.cavity.copy_from_slice(cavity_msgs);

    // Line 4: tilted moments — in closed form for Gaussian-linear sites,
    // by MCMC on Pr(yₖ|θ)·g₋ₖ(θ) otherwise.
    let analytic_ok = site.moment_strategy() == MomentStrategy::Analytic
        && site.analytic_moments(cavity, analytic);
    out.full_budget_vote = false;
    if analytic_ok {
        out.used_mcmc = false;
        out.mcmc_samples = 0;
        out.proposed = 0;
        out.accepted_n = 0;
        out.acceptance = 0.0;
    } else {
        init.clear();
        scales.clear();
        for (j, g) in cavity.iter().enumerate() {
            init.push(site.init_hint(j).unwrap_or(g.mean));
            scales.push(match site.scale_hint(j) {
                Some(h) => h.min(g.std_dev()),
                None => g.std_dev(),
            });
        }
        // Adaptive budget: a warm site whose cavity barely moved since its
        // previous update tracks the posterior with the floor budget; cold
        // starts (or a site with no history) keep the full budget, and a
        // sweep following a "hot" one (data jump in flight) runs every
        // site at the full budget — cold-level refinement for the
        // transient.
        let (burn_in, samples) = match (warm, config.adaptive) {
            (true, Some(ab)) if !prev_cavity_k.is_empty() => {
                // Two movement statistics over the site's variables:
                // * the mean — EP-with-MCMC churns individual weak
                //   variables by ~1 unit per sweep even at a fixed point,
                //   so the aggregate separates "same data, sampling noise"
                //   from "broad data movement";
                // * the max against a much higher bar (`jump_tol`) — a
                //   phase change that only touches a few observed
                //   variables of a wide site is invisible to the diluted
                //   mean but blows through the churn tail on those
                //   variables.
                let mut mean_shift = 0.0f64;
                let mut max_shift = 0.0f64;
                for (p, c) in prev_cavity_k.iter().zip(cavity_msgs.iter()) {
                    let s = p.moments_shift(c);
                    mean_shift += s;
                    max_shift = max_shift.max(s);
                }
                mean_shift /= prev_cavity_k.len().max(1) as f64;
                // Single-variable jump: a vote toward extending the warm
                // run past its sweep cap (and always the full budget).
                out.full_budget_vote = max_shift > ab.jump_tol;
                // A sweep following a "hot" one keeps everything at full
                // budget only if this site itself is still moving; quiet
                // sites stay floored even mid-transient.
                if out.full_budget_vote
                    || mean_shift >= ab.move_tol
                    || (hot_prev && mean_shift >= ab.move_tol * 0.5)
                {
                    (config.mcmc.burn_in, config.mcmc.samples)
                } else {
                    (ab.burn_in, ab.samples)
                }
            }
            (true, Some(_)) => {
                // A site with no cavity history inside a warm run was
                // selectively reset (a detected data jump): full budget,
                // and a vote toward extending the run.
                out.full_budget_vote = true;
                (config.mcmc.burn_in, config.mcmc.samples)
            }
            _ => (config.mcmc.burn_in, config.mcmc.samples),
        };
        cavity_folded.clear();
        cavity_folded.extend(cavity.iter().map(Gaussian::folded));
        let target = TiltedTarget {
            site,
            cavity: cavity_folded,
        };
        sampler.run_budgeted(&target, init, scales, rng, scratch, burn_in, samples);
        out.used_mcmc = true;
        out.mcmc_samples = scratch.samples_run();
        out.proposed = scratch.proposed();
        out.accepted_n = scratch.accepted();
        out.acceptance = scratch.acceptance();
    }
    let (means, vars): (&[f64], &[f64]) = if analytic_ok {
        (analytic.mean(), analytic.var())
    } else {
        (scratch.mean(), scratch.var())
    };

    // Divergence guard: a poisoned observation or a diverged MCMC chain
    // yields NaN/Inf tilted moments. `vars[j].max(min_var)` would silently
    // floor a NaN variance (f64::max ignores NaN) and a NaN *mean* passes
    // every variance check — either way the poison would enter the global
    // approximation and spread through every overlapping site on the next
    // sweep. Quarantine instead: stage no update and tell the driver to
    // strip this site's existing contribution back to the prior.
    if scope
        .iter()
        .enumerate()
        .any(|(j, _)| !means[j].is_finite() || !vars[j].is_finite())
    {
        out.quarantined = true;
        for a in out.accepted.iter_mut() {
            *a = false;
        }
        return;
    }

    // Lines 5–7: local moment match, damped site update, staged global
    // update.
    for (j, &v) in scope.iter().enumerate() {
        let tilted = GaussianMessage::from_moments(means[j], vars[j].max(config.min_var));
        let prec_cap = config.max_precision_ratio / prior[v].var;
        let new_site = tilted.div(&cavity_msgs[j]).capped_precision(prec_cap);
        let damped = approx_k[j].damped_toward(&new_site, config.damping);
        let candidate = global[v].div(&approx_k[j]).mul(&damped);
        if candidate.is_proper() {
            out.accepted[j] = true;
            out.global_new[j] = candidate;
            out.damped[j] = damped;
        } else {
            out.accepted[j] = false;
        }
    }
}

/// The tilted distribution of one site, likelihood × cavity: the site's
/// factor view, with the cavity as the per-variable unary term.
struct TiltedTarget<'a> {
    site: &'a dyn EpSite,
    cavity: &'a [FoldedGaussian],
}

impl Target for TiltedTarget<'_> {
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
        self.cavity[i].log_pdf(xi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::FactorSite;

    /// Seed of the single-worker farm runs below.
    const SEED: u64 = 12345;

    #[test]
    fn gaussian_observation_matches_analytic_posterior() {
        // Prior N(0, 4); observation x ~ N(6, 1). Posterior: N(4.8, 0.8).
        let mut ep =
            ExpectationPropagation::new(vec![Gaussian::new(0.0, 4.0)], EpConfig::default());
        ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
            Gaussian::new(6.0, 1.0).log_pdf(x[0])
        }));
        ep.run_farm(SEED, 1);
        let m = ep.marginal(0);
        assert!((m.mean - 4.8).abs() < 0.25, "mean {}", m.mean);
        assert!((m.var - 0.8).abs() < 0.4, "var {}", m.var);
    }

    #[test]
    fn non_finite_observation_is_quarantined_not_propagated() {
        // A Gaussian-linear site whose observation is swapped to NaN (the
        // poisoned-sample path): its analytic solve yields NaN moments.
        // The guard must quarantine the site back to prior — every
        // marginal stays finite and the divergence counter records it.
        let prior = vec![Gaussian::new(2.0, 4.0), Gaussian::new(2.0, 4.0)];
        let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
        let mut poisoned = FactorSite::builder(vec![0])
            .gaussian_linear(&[0], &[1.0], 6.0, 1.0)
            .build();
        poisoned.set_linear_obs(0, f64::NAN);
        ep.add_site(poisoned);
        // A healthy coupled site that would inhale the poison through the
        // shared variable if the quarantine failed.
        ep.add_site(
            FactorSite::builder(vec![0, 1])
                .gaussian_linear(&[0, 1], &[1.0, 1.0], 8.0, 0.5)
                .build(),
        );
        // Two threads: the crew may take the site.
        let r = ep.run_farm(99, 2);
        assert!(r.sites_quarantined > 0, "divergence counter must record");
        for v in 0..ep.num_vars() {
            let g = ep.marginal(v);
            assert!(
                g.mean.is_finite() && g.var.is_finite() && g.var > 0.0,
                "marginal {v} poisoned: {g:?}"
            );
        }
        // The healthy site's information still flowed: x0 + x1 ~ N(8, .5)
        // on N(2,4) priors pulls both means toward 4.
        assert!((ep.marginal(1).mean - 4.0).abs() < 1.0);
    }

    #[test]
    fn quarantined_site_recovers_on_sequential_path_too() {
        // One thread: no helper claimed.
        let mut ep =
            ExpectationPropagation::new(vec![Gaussian::new(0.0, 4.0)], EpConfig::default());
        let mut poisoned = FactorSite::builder(vec![0])
            .gaussian_linear(&[0], &[1.0], 6.0, 1.0)
            .build();
        poisoned.set_linear_obs(0, f64::INFINITY);
        ep.add_site(poisoned);
        let r = ep.run_farm(SEED, 1);
        assert!(r.sites_quarantined > 0);
        // With its only site quarantined, the posterior is the prior.
        let m = ep.marginal(0);
        assert!((m.mean - 0.0).abs() < 1e-9);
        assert!((m.var - 4.0).abs() < 1e-9);
    }

    #[test]
    fn two_sites_combine_like_a_product() {
        // Two unit-variance observations at 0 and 10 on a flat-ish prior:
        // posterior mean ≈ 5.
        let mut ep =
            ExpectationPropagation::new(vec![Gaussian::new(5.0, 1000.0)], EpConfig::default());
        ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
            Gaussian::new(0.0, 1.0).log_pdf(x[0])
        }));
        ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
            Gaussian::new(10.0, 1.0).log_pdf(x[0])
        }));
        ep.run_farm(SEED, 1);
        let m = ep.marginal(0);
        assert!((m.mean - 5.0).abs() < 0.4, "mean {}", m.mean);
        // Posterior variance ≈ 0.5 (product of two unit-variance terms).
        assert!(m.var < 1.5);
    }

    #[test]
    fn linear_constraint_transfers_information() {
        // x0 + x1 ≈ 10 (tight), x0 observed near 3 -> x1 ≈ 7 with
        // uncertainty larger than x0's.
        let mut ep = ExpectationPropagation::new(
            vec![Gaussian::new(5.0, 100.0), Gaussian::new(5.0, 100.0)],
            EpConfig::default(),
        );
        ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
            Gaussian::new(3.0, 0.01).log_pdf(x[0])
        }));
        ep.add_site(FnSite::new(vec![0, 1], |x: &[f64]| {
            Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
        }));
        ep.run_farm(SEED, 1);
        let (x0, x1) = (ep.marginal(0).mean, ep.marginal(1).mean);
        assert!((x0 - 3.0).abs() < 0.3, "x0 {x0}");
        assert!((x1 - 7.0).abs() < 0.5, "x1 {x1}");
    }

    #[test]
    fn parallel_run_matches_sequential_quality() {
        // Same model as above, through the engine farm path.
        let mut ep = ExpectationPropagation::new(
            vec![Gaussian::new(5.0, 100.0), Gaussian::new(5.0, 100.0)],
            EpConfig::default(),
        );
        ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
            Gaussian::new(3.0, 0.01).log_pdf(x[0])
        }));
        ep.add_site(FnSite::new(vec![0, 1], |x: &[f64]| {
            Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
        }));
        let r = ep.run_farm(2024, 2);
        let (x0, x1) = (ep.marginal(0).mean, ep.marginal(1).mean);
        assert!((x0 - 3.0).abs() < 0.3, "x0 {x0}");
        assert!((x1 - 7.0).abs() < 0.5, "x1 {x1}");
        assert!(r.mean_acceptance > 0.05 && r.mean_acceptance < 0.95);
        assert_eq!(r.analytic_site_updates, 0);
        assert!(r.mcmc_site_updates > 0);
        assert!(r.mcmc_samples > 0);
    }

    #[test]
    fn chained_constraints_propagate_transitively() {
        // x0 observed; x0 + x1 = 10; x1 + x2 = 12 -> x2 ≈ x0 + 2.
        let prior = vec![
            Gaussian::new(4.0, 50.0),
            Gaussian::new(4.0, 50.0),
            Gaussian::new(4.0, 50.0),
        ];
        let cfg = EpConfig {
            max_sweeps: 10,
            ..EpConfig::default()
        };
        let mut ep = ExpectationPropagation::new(prior, cfg);
        ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
            Gaussian::new(4.0, 0.01).log_pdf(x[0])
        }));
        ep.add_site(FnSite::new(vec![0, 1], |x: &[f64]| {
            Gaussian::new(0.0, 0.02).log_pdf(x[0] + x[1] - 10.0)
        }));
        ep.add_site(FnSite::new(vec![1, 2], |x: &[f64]| {
            Gaussian::new(0.0, 0.02).log_pdf(x[0] + x[1] - 12.0)
        }));
        ep.run_farm(SEED, 1);
        let x2 = ep.marginal(2).mean;
        assert!((x2 - 6.0).abs() < 0.7, "x2 {x2}");
    }

    #[test]
    fn untouched_variable_keeps_prior() {
        let mut ep = ExpectationPropagation::new(
            vec![Gaussian::new(1.0, 2.0), Gaussian::new(9.0, 3.0)],
            EpConfig::default(),
        );
        ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
            Gaussian::new(1.0, 1.0).log_pdf(x[0])
        }));
        ep.run_farm(SEED, 1);
        assert_eq!(ep.marginal(1).mean, 9.0);
        assert_eq!(ep.marginal(1).var, 3.0);
    }

    #[test]
    fn converges_and_reports_acceptance() {
        // Extra MCMC samples shrink tilted-moment noise so the sweep shift
        // reliably drops below tol (the default budget converges for most
        // seeds but is a coin flip near the tolerance boundary).
        let mut ep = ExpectationPropagation::new(
            vec![Gaussian::new(0.0, 10.0)],
            EpConfig {
                max_sweeps: 30,
                mcmc: McmcConfig {
                    samples: 1200,
                    ..McmcConfig::default()
                },
                ..EpConfig::default()
            },
        );
        ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
            Gaussian::new(2.0, 0.5).log_pdf(x[0])
        }));
        let r = ep.run_farm(SEED, 1);
        assert!(r.converged, "should converge in 30 sweeps");
        assert!(r.sweeps_run < 30);
        assert_eq!(
            r.sweeps_total, r.sweeps_run,
            "fresh engine: cumulative == run"
        );
        assert!(r.mean_acceptance > 0.05 && r.mean_acceptance < 0.95);
    }

    #[test]
    fn analytic_sites_bypass_mcmc_entirely() {
        // Two Gaussian-linear sites: the whole run must be sample-free and
        // match the exact posterior (EP is exact for Gaussian models).
        let mut ep = ExpectationPropagation::new(
            vec![Gaussian::new(5.0, 100.0), Gaussian::new(5.0, 100.0)],
            EpConfig {
                max_sweeps: 40,
                tol: 1e-10,
                damping: 0.8,
                ..EpConfig::default()
            },
        );
        ep.add_site(
            FactorSite::builder(vec![0])
                .gaussian_linear(&[0], &[1.0], 3.0, 0.01)
                .build(),
        );
        ep.add_site(
            FactorSite::builder(vec![0, 1])
                .gaussian_linear(&[0, 1], &[1.0, 1.0], 10.0, 0.01)
                .build(),
        );
        let r = ep.run_farm(7, 2);
        assert_eq!(r.mcmc_site_updates, 0, "no MCMC on the analytic path");
        assert_eq!(r.mcmc_samples, 0);
        assert!(r.analytic_site_updates > 0);
        assert_eq!(r.mean_acceptance, 0.0, "NaN-free when nothing sampled");
        // Exact posterior (the wide prior pulls ~4e-4 off the observations).
        let (x0, x1) = (ep.marginal(0).mean, ep.marginal(1).mean);
        assert!((x0 - 3.0).abs() < 0.01, "x0 {x0}");
        assert!((x1 - 7.0).abs() < 0.01, "x1 {x1}");
    }

    #[test]
    fn mixed_sites_report_acceptance_over_mcmc_only() {
        let mut ep = ExpectationPropagation::new(
            vec![Gaussian::new(0.0, 10.0), Gaussian::new(0.0, 10.0)],
            EpConfig::default(),
        );
        ep.add_site(
            FactorSite::builder(vec![0])
                .gaussian_linear(&[0], &[1.0], 2.0, 0.5)
                .build(),
        );
        ep.add_site(FnSite::new(vec![1], |x: &[f64]| {
            Gaussian::new(-1.0, 0.5).log_pdf(x[0])
        }));
        let r = ep.run_farm(3, 1);
        assert!(r.analytic_site_updates > 0);
        assert!(r.mcmc_site_updates > 0);
        // Aggregated over the MCMC site only — still a real rate.
        assert!(r.mean_acceptance > 0.05 && r.mean_acceptance < 0.95);
    }

    #[test]
    fn warm_start_keeps_messages_and_shrinks_the_run() {
        let prior = vec![Gaussian::new(0.0, 25.0)];
        let cfg = EpConfig {
            max_sweeps: 30,
            warm_max_sweeps: 30,
            tol: 1e-9,
            damping: 0.9,
            ..EpConfig::default()
        };
        let mut ep = ExpectationPropagation::new(prior.clone(), cfg);
        ep.add_site(
            FactorSite::builder(vec![0])
                .gaussian_linear(&[0], &[1.0], 4.0, 1.0)
                .build(),
        );
        let cold = ep.run_farm(11, 1);
        assert!(cold.converged);
        // Swap the observation slightly and warm-start.
        ep.site_mut::<FactorSite>(0).unwrap().set_linear_obs(0, 4.1);
        ep.warm_start(&prior);
        assert!(ep.is_warm());
        let warm = ep.run_farm(12, 1);
        assert!(warm.converged);
        assert!(
            warm.sweeps_run <= cold.sweeps_run,
            "warm {} vs cold {} sweeps",
            warm.sweeps_run,
            cold.sweeps_run
        );
        assert!(
            warm.sweeps_total > warm.sweeps_run,
            "cumulative includes history"
        );
        // Exact posterior of N(0,25) with N(4.1,1): mean 4.1·(25/26).
        let expect = 4.1 * 25.0 / 26.0;
        let mean = ep.marginal(0).mean;
        assert!((mean - expect).abs() < 1e-4, "mean {mean} vs {expect}");
    }

    #[test]
    fn cold_reset_matches_fresh_engine_bitwise() {
        let prior = vec![Gaussian::new(5.0, 100.0), Gaussian::new(5.0, 100.0)];
        let build = |ep: &mut ExpectationPropagation| {
            ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
                Gaussian::new(3.0, 0.01).log_pdf(x[0])
            }));
            ep.add_site(FnSite::new(vec![0, 1], |x: &[f64]| {
                Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
            }));
        };
        let mut fresh = ExpectationPropagation::new(prior.clone(), EpConfig::default());
        build(&mut fresh);
        let want = fresh.run_farm(42, 1);

        let mut reused = ExpectationPropagation::new(prior.clone(), EpConfig::default());
        build(&mut reused);
        let _ = reused.run_farm(7, 1); // dirty the state
        reused.cold_reset(&prior);
        let got = reused.run_farm(42, 1);
        assert_eq!(want.sweeps_total, got.sweeps_total);
        for v in 0..fresh.num_vars() {
            let (a, b) = (fresh.marginal(v), reused.marginal(v));
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.var.to_bits(), b.var.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "site variable 3 out of range")]
    fn rejects_out_of_range_site() {
        let mut ep =
            ExpectationPropagation::new(vec![Gaussian::new(0.0, 1.0)], EpConfig::default());
        ep.add_site(FnSite::new(vec![3], |_: &[f64]| 0.0));
    }

    #[test]
    #[should_panic(expected = "site variables must be unique")]
    fn rejects_duplicate_site_vars() {
        FnSite::new(vec![0, 0], |_: &[f64]| 0.0);
    }
}
