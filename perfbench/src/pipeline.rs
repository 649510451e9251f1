//! The three workloads, driven through the pipeline's public API only:
//! `Monitor::push_sample` → inference thread → `Session::read` /
//! `subscribe`, and for the fleet `Session` → `ScrapeResponder` →
//! `SimTransport` → `FleetScraper::poll_round` → `FleetSession`.
//!
//! One generator thread (the caller's) makes all the load: it pushes
//! samples, reads posteriors and pumps the scraper. Inputs are generated
//! from the seed before anything is timed.

use crate::stats::{self, Coverage, ErrSum, NsHistogram, Ops};
use crate::trace::Path;
use crate::{cpu, Args, Metric, Outcome, Workload};
use bayesperf_bench::derived_event_hpcs;
use bayesperf_core::{CorrectorConfig, Monitor, PosteriorUpdate, Reading, Session, Updates};
use bayesperf_events::{Arch, Catalog, EventId};
use bayesperf_fleet::{
    FleetScraper, FleetSession, ScrapeConfig, ScrapeResponder, ScrapeTotals, ShardId, ShardLabel,
    SimTransport,
};
use bayesperf_inference::{derive_stream_seed, Gaussian};
use bayesperf_obs::{SpanTracer, Stage};
use bayesperf_simcpu::{pack_round_robin, LinkProfile, LinkState, MultiplexRun, Pmu, PmuConfig};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Res<T> = Result<T, String>;

/// Windows pushed unpaced during set-up: the first chunk plus the window
/// whose first sample completes it.
const SETUP_WINDOWS: u32 = 7;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Samples the monitor's ring holds (far above any backlog a workload
/// builds, so nothing is dropped by design).
const RING_CAPACITY: usize = 1 << 16;
/// `saturated`: windows pushed but not yet visible that the closed loop
/// keeps outstanding, so the inference thread never waits for input.
const SATURATED_BACKLOG: u32 = 60;
/// `saturated`: windows generated per timed second (well above the
/// seed commit's capacity; a run that exhausts them ends early).
const SATURATED_MAX_RATE: u64 = 600;
/// `paced_reads`: the frozen push rate, windows per second. A chunk
/// arrives every 94 ms, so the inference thread is busy about a third of
/// the time, and its sweep (p90 about 50 ms) does not queue behind the
/// previous one even when the shared host runs 40% slower.
const PACED_RATE: u64 = 64;
/// `fleet_scrape`: the frozen per-shard push rate, windows per second: a
/// chunk every 150 ms per shard, the shards 75 ms apart.
const FLEET_RATE: u64 = 40;
/// `fleet_scrape`: shards.
const FLEET_SHARDS: u32 = 2;
/// The generator's read tick, and on `fleet_scrape` the scrape-round
/// cadence.
const TICK_NS: u64 = 1_000_000;
/// Reads per tick (enough that the first read of a burst, which finds
/// colder caches, stays beyond p99).
const READS_PER_BURST: usize = 256;
/// Seconds each workload runs exactly as measured before its timed phase
/// starts, so that the timed phase finds the pipeline and the host's
/// scheduling of its threads in a steady state (a vCPU that was idle runs
/// faster for its first seconds of load). Nothing the warm-up measures is
/// reported; its outputs are checked and scored like the rest.
const WARMUP_SECONDS: u64 = 4;
/// How often set-up and the end of a run poll for what they wait for.
const POLL: Duration = Duration::from_micros(100);
/// Longest wait for a chunk to become visible before the run fails.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Which `bayesperf_workloads` program each workload runs.
fn program(w: Workload) -> &'static str {
    match w {
        Workload::Saturated => "KMeans",
        Workload::PacedReads => "TeraSort",
        Workload::FleetScrape => "PageRank",
    }
}

/// Runs one workload and returns its metrics.
pub fn run(args: &Args) -> Res<Outcome> {
    let windows = (WARMUP_SECONDS + args.seconds)
        * match args.workload {
            Workload::Saturated => SATURATED_MAX_RATE,
            Workload::PacedReads => PACED_RATE,
            Workload::FleetScrape => FLEET_RATE,
        }
        + u64::from(SETUP_WINDOWS)
        + 16;
    let shards = if args.workload == Workload::FleetScrape {
        FLEET_SHARDS
    } else {
        1
    };
    let t = Instant::now();
    let inputs = Inputs::generate(program(args.workload), args.seed, shards, windows as usize)?;
    eprintln!(
        "perfbench: {:?} seed {}: generated {} windows x {} shard(s) of {} in {:.1} s",
        args.workload,
        args.seed,
        windows,
        shards,
        program(args.workload),
        t.elapsed().as_secs_f64()
    );
    let outcome = run_timed(args, &inputs)?.report(args, &inputs)?;
    eprintln!(
        "perfbench: correct; {} ops attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    Ok(outcome)
}

/// The generated inputs: one multiplexed run per shard over the same
/// program instance (so all shards share the ground truth), each with
/// its own PMU-noise seed.
struct Inputs {
    catalog: Catalog,
    hpcs: Vec<EventId>,
    runs: Vec<MultiplexRun>,
    config: CorrectorConfig,
    /// Windows per inference chunk.
    k: u32,
}

impl Inputs {
    fn generate(name: &str, seed: u64, shards: u32, windows: usize) -> Res<Inputs> {
        let catalog = Catalog::new(Arch::X86SkyLake);
        let hpcs = derived_event_hpcs(&catalog);
        let schedule = pack_round_robin(&catalog, &hpcs).map_err(|e| format!("{e:?}"))?;
        let program = bayesperf_workloads::by_name(name).ok_or("unknown program")?;
        let mut runs = Vec::new();
        for shard in 0..shards {
            let pmu = Pmu::new(
                &catalog,
                PmuConfig {
                    seed: derive_stream_seed(seed, shard as usize + 1),
                    ..PmuConfig::for_catalog(&catalog)
                },
            );
            let mut truth = program.instantiate(&catalog, seed);
            runs.push(pmu.run_multiplexed(&mut truth, &schedule, windows));
        }
        for run in &runs[1..] {
            let same = run
                .windows
                .iter()
                .zip(&runs[0].windows)
                .all(|(a, b)| a.truth == b.truth);
            if !same {
                return Err("shards do not share the ground truth".into());
            }
        }
        let config = CorrectorConfig::for_run(&runs[0]);
        let k = config.model.slices.max(1) as u32;
        Ok(Inputs {
            catalog,
            hpcs,
            runs,
            config,
            k,
        })
    }
}

/// Nanoseconds since the run's base instant: the one clock every
/// benchmark timestamp uses.
#[derive(Clone, Copy)]
struct Clock(Instant);

impl Clock {
    fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Offset that maps `tracer`'s span stamps onto this clock, taken
    /// from the tightest of several bracketing reads.
    fn offset_of(&self, tracer: &SpanTracer) -> i64 {
        let mut best = (u64::MAX, 0i64);
        for _ in 0..16 {
            let a = self.ns();
            let t = tracer.now_ns();
            let b = self.ns();
            if b - a < best.0 {
                best = (b - a, (a + (b - a) / 2) as i64 - t as i64);
            }
        }
        best.1
    }
}

/// How often the traced run copies the program's span rings out: they
/// keep only the last few thousand spans per thread.
const DRAIN_EVERY_NS: u64 = 500_000_000;

/// One tracer's spans as `(stage, window, start, end)` on the benchmark
/// clock, accumulated across drains.
struct SpanLog {
    tracer: SpanTracer,
    offset: i64,
    spans: HashSet<(u8, u32, u64, u64)>,
}

impl SpanLog {
    fn new(tracer: &SpanTracer, clock: Clock) -> SpanLog {
        SpanLog {
            tracer: tracer.clone(),
            offset: clock.offset_of(tracer),
            spans: HashSet::new(),
        }
    }

    fn drain(&mut self) {
        let shift = |t: u64| (t as i64 + self.offset).max(0) as u64;
        for r in self.tracer.records() {
            self.spans
                .insert((r.stage as u8, r.window, shift(r.start_ns), shift(r.end_ns)));
        }
    }
}

/// A pushed window: when it was due and when its first sample went in.
#[derive(Clone, Copy)]
struct Push {
    due: u64,
    start: u64,
    first_end: u64,
}

/// One monitor with the sessions the generator uses on it.
struct Shard {
    monitor: Monitor,
    session: Session,
    updates: Updates,
    received: Vec<PosteriorUpdate>,
    /// First window not yet pushed.
    next: u32,
    /// Timed pushes by window.
    pushes: HashMap<u32, Push>,
    /// The monitor's spans (drained only by the traced run).
    spans: SpanLog,
}

impl Shard {
    fn open(inputs: &Inputs, capacity: usize, clock: Clock) -> Res<Shard> {
        let monitor = Monitor::new(&inputs.catalog, inputs.config.clone(), RING_CAPACITY)
            .map_err(|e| format!("monitor: {e}"))?;
        let session = monitor
            .session()
            .events(&inputs.hpcs)
            .open()
            .map_err(|e| format!("session: {e}"))?;
        // Sized to the whole run so a subscriber can never lose an
        // update: any gap is then the program's fault.
        let updates = session.subscribe_with_capacity(capacity);
        let spans = SpanLog::new(monitor.telemetry().spans(), clock);
        Ok(Shard {
            monitor,
            session,
            updates,
            received: Vec::new(),
            next: 0,
            pushes: HashMap::new(),
            spans,
        })
    }

    /// Pushes the next window of `run` untimed (set-up).
    fn push_untimed(&mut self, run: &MultiplexRun) -> Res<()> {
        for s in &run.windows[self.next as usize].samples {
            self.monitor
                .push_sample(*s)
                .map_err(|e| format!("set-up push: {e}"))?;
        }
        self.next += 1;
        Ok(())
    }

    /// Pushes the next window of `run`, timing every `push_sample`.
    fn push_timed(&mut self, run: &MultiplexRun, due: u64, clock: Clock, t: &mut Tally) {
        let w = self.next;
        self.next += 1;
        let start = clock.ns();
        let mut prev = start;
        let mut first_end = None;
        for s in &run.windows[w as usize].samples {
            let ok = self.monitor.push_sample(*s).is_ok();
            let now = clock.ns();
            t.push_ns.record(now - prev);
            t.ops.note(ok);
            first_end.get_or_insert(now);
            prev = now;
        }
        t.gen_lag_ns.push((start - due.min(start)) as f64);
        self.pushes.insert(
            w,
            Push {
                due,
                start,
                first_end: first_end.unwrap_or(start),
            },
        );
    }

    /// Moves every queued subscriber update into `received`.
    fn drain(&mut self) -> Res<()> {
        while let Some(u) = self
            .updates
            .try_next()
            .map_err(|e| format!("subscriber: {e}"))?
        {
            self.received.push(u);
        }
        Ok(())
    }

    /// Drains until window `last` has been received.
    fn drain_through(&mut self, last: u32) -> Res<()> {
        wait_until("the last window's update", || {
            self.drain()?;
            Ok(self.received.last().is_some_and(|u| u.window >= last))
        })
    }
}

/// Everything the generator counts while the timed phase runs.
#[derive(Default)]
struct Tally {
    ops: Ops,
    push_ns: NsHistogram,
    read_ns: NsHistogram,
    stamp_ns: NsHistogram,
    gen_lag_ns: Vec<f64>,
    /// Scrape rounds `(start, end)` on the benchmark clock.
    rounds: Vec<(u64, u64)>,
}

impl Tally {
    /// `n` individually timed reads through `read`, rotating over
    /// `events`.
    fn read_burst<E>(
        &mut self,
        n: usize,
        events: &[EventId],
        clock: Clock,
        mut read: impl FnMut(EventId) -> Result<Reading, E>,
    ) {
        for _ in 0..n {
            let event = events[self.read_ns.count() as usize % events.len()];
            let a = clock.ns();
            let got = read(event);
            self.read_ns.record(clock.ns() - a);
            self.ops
                .note(got.is_ok_and(|r| r.value.is_finite() && r.std_dev > 0.0));
        }
    }
}

/// Polls `ready` every [`POLL`] until it holds, failing after the timeout.
/// It sleeps in between rather than spinning: a spinning generator that
/// shares a vCPU with the inference thread would take half its time.
fn wait_until(what: &str, mut ready: impl FnMut() -> Res<bool>) -> Res<()> {
    let deadline = Instant::now() + VISIBLE_TIMEOUT;
    while !ready()? {
        if Instant::now() > deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(POLL);
    }
    Ok(())
}

/// Highest window of the last chunk completed by pushing windows
/// `..next` (window `next - 1` is still open), if any.
fn last_complete_window(k: u32, next: u32) -> Option<u32> {
    let chunks = next.saturating_sub(1) / k;
    (chunks > 0).then(|| chunks * k - 1)
}

/// Where the timed phase began, after the warm-up.
struct Start {
    ns: u64,
    /// Process and generator-thread CPU clocks.
    cpu: u64,
    gen_cpu: u64,
    /// First window pushed in the timed phase.
    window: u32,
    /// First window not yet visible to the reader.
    unseen: u32,
}

/// What a finished timed phase leaves for scoring and reporting.
struct Measured {
    setup_s: Vec<f64>,
    shards: Vec<Shard>,
    tally: Tally,
    /// First window not pushed.
    next: u32,
    /// First window pushed in the timed phase.
    first_timed: u32,
    /// Windows (shard-windows on the fleet) the monitors processed while
    /// `cpu_ns` was counted: every one not yet visible when the timed
    /// phase began.
    windows_processed: u64,
    cpu_ns: u64,
    /// `(chunk, freshness ns)`.
    freshness: Vec<(u32, f64)>,
    /// Median segment rate of windows becoming visible.
    windows_per_s: f64,
    /// Fused posteriors scored per window (fleet only).
    fused: BTreeMap<u32, Vec<Gaussian>>,
    scraper: Option<ScraperStats>,
}

/// The scraper's spans and its counters over the timed phase.
struct ScraperStats {
    spans: SpanLog,
    bytes: u64,
    rounds: u64,
    full: u64,
    attempted: u64,
    failures: u64,
}

impl ScraperStats {
    fn between(spans: SpanLog, a: &ScrapeTotals, b: &ScrapeTotals) -> ScraperStats {
        ScraperStats {
            spans,
            bytes: (b.bytes_sent + b.bytes_received) - (a.bytes_sent + a.bytes_received),
            rounds: b.rounds - a.rounds,
            full: b.full_snapshots - a.full_snapshots,
            attempted: b.attempted - a.attempted,
            failures: b.failures - a.failures,
        }
    }
}

/// A caller-pumped scraper over every shard, on clean simulated links,
/// and the fused session the generator reads through.
struct Fleet {
    scraper: FleetScraper,
    session: FleetSession,
    spans: SpanLog,
    /// CPU the generator thread spent inside `poll_round`.
    round_cpu: u64,
}

impl Fleet {
    fn open(inputs: &Inputs, seed: u64, shards: &[Shard], clock: Clock) -> Fleet {
        let mut scraper = FleetScraper::new(
            inputs.catalog.len(),
            ScrapeConfig {
                concurrency: 1,
                ..ScrapeConfig::default()
            },
        );
        for (i, shard) in (0u32..).zip(shards) {
            let label = ShardLabel::new(format!("node{i}"), 0);
            let responder = Arc::new(ScrapeResponder::new(
                ShardId::from_raw(i),
                label.clone(),
                shard.session.clone(),
            ));
            let link = LinkState::new(LinkProfile::clean(derive_stream_seed(
                seed,
                100 + i as usize,
            )));
            scraper.add_endpoint(
                ShardId::from_raw(i),
                label,
                Box::new(SimTransport::new(responder, link)),
            );
        }
        let session = scraper.session(&inputs.catalog);
        let spans = SpanLog::new(scraper.telemetry().spans(), clock);
        Fleet {
            scraper,
            session,
            spans,
            round_cpu: 0,
        }
    }

    /// The fused snapshot's lowest and highest shard window, checking
    /// that every shard is in it and contributes (`None` before every
    /// shard has been scraped once, during set-up).
    fn coverage(&self) -> Res<Option<(u32, u32, Vec<Gaussian>)>> {
        let snap = match self.session.snapshot() {
            Ok(s) if s.shards.len() == FLEET_SHARDS as usize => s,
            _ => return Ok(None),
        };
        if let Some(h) = snap.health.iter().find(|h| !h.state.contributes()) {
            return Err(format!(
                "shard {} left the fused snapshot: {h:?}",
                h.shard.raw()
            ));
        }
        let lo = snap.shards.iter().map(|s| s.window).min().unwrap_or(0);
        let hi = snap.shards.iter().map(|s| s.window).max().unwrap_or(0);
        Ok(Some((lo, hi, snap.fused)))
    }

    /// After set-up: checks that the fused snapshot still carries every
    /// shard, keeps its posterior when all shards are at the same window
    /// (the one scored), and returns the lowest shard window: the last
    /// window the fused posterior covers.
    fn observe(&self, fused: &mut BTreeMap<u32, Vec<Gaussian>>) -> Res<u32> {
        let (lo, hi, posteriors) = self.coverage()?.ok_or_else(|| {
            format!("the fused snapshot no longer carries all {FLEET_SHARDS} shards")
        })?;
        if lo == hi {
            fused.entry(lo).or_insert(posteriors);
        }
        Ok(lo)
    }
}

/// The monitors under test (one per shard of the inputs) and, on
/// `fleet_scrape`, the scraper that fuses them. The generator reads
/// through the first monitor's `Session`, or through the fused session.
struct Rig {
    shards: Vec<Shard>,
    fleet: Option<Fleet>,
}

impl Rig {
    fn open(inputs: &Inputs, seed: u64, capacity: usize, clock: Clock) -> Res<Rig> {
        let shards = inputs
            .runs
            .iter()
            .map(|_| Shard::open(inputs, capacity, clock))
            .collect::<Res<Vec<_>>>()?;
        let fleet = (shards.len() > 1).then(|| Fleet::open(inputs, seed, &shards, clock));
        Ok(Rig { shards, fleet })
    }

    /// Whether the first posterior is readable through the reader (on
    /// the fleet: a fused snapshot that covers the first chunk on every
    /// shard, pumping one scrape round per call).
    fn first_posterior(&mut self, inputs: &Inputs) -> Res<bool> {
        let Some(f) = &mut self.fleet else {
            return Ok(self.shards[0].session.read(inputs.hpcs[0]).is_ok());
        };
        f.scraper.poll_round();
        Ok(f.session.read(inputs.hpcs[0]).is_ok()
            && f.coverage()?.is_some_and(|(lo, _, _)| lo + 1 >= inputs.k))
    }

    /// One read tick. On a single monitor: a burst of `Session::read`s
    /// and one timed `snapshot_stamp`. On the fleet: one timed
    /// `poll_round`, `late` ns behind its 1 ms grid, then
    /// [`Fleet::observe`] and a burst of fused reads. Returns when, and up
    /// to which window, the reader saw posteriors.
    fn tick(
        &mut self,
        inputs: &Inputs,
        clock: Clock,
        late: u64,
        tally: &mut Tally,
        fused: &mut BTreeMap<u32, Vec<Gaussian>>,
    ) -> Res<(u64, u32)> {
        let Some(f) = &mut self.fleet else {
            let session = &self.shards[0].session;
            tally.read_burst(READS_PER_BURST, &inputs.hpcs, clock, |e| session.read(e));
            let b = clock.ns();
            let stamp = session.snapshot_stamp();
            let c = clock.ns();
            tally.stamp_ns.record(c - b);
            tally.ops.note(stamp.is_ok());
            return Ok((c, stamp.map_or(0, |(w, _)| w)));
        };
        tally.gen_lag_ns.push(late as f64);
        let c0 = cpu::thread_ns();
        let r0 = clock.ns();
        let report = f.scraper.poll_round();
        let r1 = clock.ns();
        f.round_cpu += cpu::thread_ns() - c0;
        tally.rounds.push((r0, r1));
        tally.ops.attempted += report.attempted as u64;
        tally.ops.failed += report.failures as u64;
        let lo = f.observe(fused)?;
        tally.read_burst(READS_PER_BURST, &inputs.hpcs, clock, |e| f.session.read(e));
        Ok((r1, lo))
    }

    /// Copies every span ring out.
    fn drain_spans(&mut self) {
        for shard in &mut self.shards {
            shard.spans.drain();
        }
        if let Some(f) = &mut self.fleet {
            f.spans.drain();
        }
    }
}

/// Opens the rig [`SETUP_REPS`] times; each time pushes the first chunk
/// and its completing window unpaced and waits until the first posterior
/// is readable. Returns the last rig and every set-up's time.
fn setup(inputs: &Inputs, seed: u64, capacity: usize, clock: Clock) -> Res<(Rig, Vec<f64>)> {
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let mut rig = Rig::open(inputs, seed, capacity, clock)?;
        for _ in 0..SETUP_WINDOWS {
            for (shard, run) in rig.shards.iter_mut().zip(&inputs.runs) {
                shard.push_untimed(run)?;
            }
        }
        wait_until("the first posterior", || rig.first_posterior(inputs))?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() == SETUP_REPS {
            return Ok((rig, times));
        }
    }
}

/// The warm-up and the timed phase, the same on every workload. The
/// generator pushes each window to each shard when it is due: on
/// `paced_reads` and `fleet_scrape` by a fixed schedule, on `saturated` as
/// soon as the closed loop's backlog has room. On a fixed 1 ms grid it runs
/// one read tick ([`Rig::tick`]) and drains the subscriptions; in between
/// it sleeps, so the inference threads have the cores. After
/// [`WARMUP_SECONDS`] the timed phase starts: everything counted so far is
/// dropped, and the load goes on unchanged.
fn run_timed(args: &Args, inputs: &Inputs) -> Res<Measured> {
    let n = inputs.runs[0].windows.len() as u32;
    let k = inputs.k;
    let clock = Clock(Instant::now());
    let (mut rig, setup_s) = setup(inputs, args.seed, n as usize + 16, clock)?;
    let mut totals0 = None;
    let mut tally = Tally::default();
    let mut fused: BTreeMap<u32, Vec<Gaussian>> = BTreeMap::new();
    let mut vis_window = match &rig.fleet {
        Some(f) => f.observe(&mut fused)?,
        None => {
            rig.shards[0]
                .session
                .snapshot_stamp()
                .map_err(|e| format!("stamp: {e}"))?
                .0
        }
    };

    let t0 = clock.ns();
    let warm_end = t0 + WARMUP_SECONDS * 1_000_000_000;
    let end = warm_end + args.seconds * 1_000_000_000;
    let mut start: Option<Start> = None;
    let mut visible = Vec::new();
    let period = 1_000_000_000
        / match args.workload {
            Workload::FleetScrape => FLEET_RATE,
            _ => PACED_RATE,
        };
    // Shard `s` runs the schedule `s` shares of a chunk's period later than
    // the first shard, so that the shards' EP sweeps take turns on the two
    // cores, as they would on machines of their own. A window is started
    // by the first shard's push; once started it is pushed to every shard.
    let stagger = u64::from(k) * period / rig.shards.len() as u64;
    let due_of = |s: usize, w: u32| t0 + u64::from(w - SETUP_WINDOWS) * period + s as u64 * stagger;
    let (mut stopped, mut stop_ns) = (false, end);
    let (mut next_tick, mut next_drain) = (t0, 0);
    loop {
        let now = clock.ns();
        // The first window not pushed to the first shard.
        let lead = rig.shards[0].next;
        if start.is_none() && now >= warm_end {
            tally = Tally::default();
            for shard in &mut rig.shards {
                shard.pushes.clear();
            }
            if let Some(f) = &mut rig.fleet {
                f.round_cpu = 0;
                totals0 = Some(f.scraper.totals());
            }
            visible = vec![(now as f64, vis_window)];
            start = Some(Start {
                ns: now,
                cpu: cpu::process_ns(),
                gen_cpu: cpu::thread_ns(),
                window: lead,
                unseen: vis_window + 1,
            });
        }
        let lead_due = match args.workload {
            Workload::Saturated => now,
            _ => due_of(0, lead),
        };
        if !stopped && (lead >= n || now >= end || lead_due >= end) {
            stopped = true;
            stop_ns = now;
        }
        // The earliest push that is still to be made: (shard, due).
        let push = match args.workload {
            Workload::Saturated => {
                (!stopped && lead - (vis_window + 1) < SATURATED_BACKLOG).then_some((0, now))
            }
            _ => (0..rig.shards.len())
                .filter(|&s| !stopped || rig.shards[s].next < lead)
                .map(|s| (s, due_of(s, rig.shards[s].next)))
                .min_by_key(|&(_, d)| d),
        };
        if let Some((s, d)) = push.filter(|&(_, d)| d <= now) {
            rig.shards[s].push_timed(&inputs.runs[s], d, clock, &mut tally);
            continue;
        }
        if now >= next_tick {
            let (t, w) = rig.tick(inputs, clock, now - next_tick, &mut tally, &mut fused)?;
            if w > vis_window {
                vis_window = w;
                visible.push((t as f64, w));
            }
            for shard in &mut rig.shards {
                shard.drain()?;
            }
            if args.trace && t >= next_drain {
                rig.drain_spans();
                next_drain = t + DRAIN_EVERY_NS;
            }
            let done = clock.ns();
            while next_tick <= done {
                next_tick += TICK_NS;
            }
            continue;
        }
        if stopped
            && push.is_none()
            && last_complete_window(k, lead).is_none_or(|w| vis_window >= w)
        {
            break;
        }
        if now > end + VISIBLE_TIMEOUT.as_nanos() as u64 {
            return Err("a completed chunk never became visible to the reader".into());
        }
        let wake = push.map_or(next_tick, |(_, d)| d.min(next_tick));
        std::thread::sleep(Duration::from_nanos(wake.saturating_sub(now)));
    }
    let start = start.ok_or("the inputs ran out during the warm-up")?;
    let next = rig.shards[0].next;
    for shard in &rig.shards {
        shard.monitor.flush().map_err(|e| format!("flush: {e}"))?;
    }
    let round_cpu = rig.fleet.as_ref().map_or(0, |f| f.round_cpu);
    let cpu_ns = (cpu::process_ns() - start.cpu).saturating_sub(cpu::thread_ns() - start.gen_cpu)
        + round_cpu;
    let totals = rig.fleet.as_ref().map(|f| f.scraper.totals());

    // On the fleet, scrape the flushed tails too, so every published
    // window is scored and checked.
    let last = next - 1;
    if let Some(f) = &mut rig.fleet {
        wait_until("the fused tail", || {
            f.scraper.poll_round();
            Ok(f.observe(&mut fused)? >= last)
        })?;
    }
    for shard in &mut rig.shards {
        shard.drain_through(last)?;
    }

    let shards = &rig.shards;
    let freshness = stats::match_freshness(k, |w| last_due(shards, w), &visible, 0..n / k + 1);
    let windows_per_s = segment_rate(&visible, start.ns, stop_ns)?;
    let windows_processed = u64::from(next - start.unseen) * rig.shards.len() as u64;
    let scraper = match (rig.fleet, totals0, totals) {
        (Some(f), Some(a), Some(b)) => Some(ScraperStats::between(f.spans, &a, &b)),
        _ => None,
    };
    Ok(Measured {
        setup_s,
        shards: rig.shards,
        tally,
        next,
        first_timed: start.window,
        windows_processed,
        cpu_ns,
        freshness,
        windows_per_s,
        fused,
        scraper,
    })
}

/// Due time of the last shard's timed push of window `w`: on the fleet,
/// the push that completes a chunk on every shard. `None` unless every
/// shard's push of `w` was timed.
fn last_due(shards: &[Shard], w: u32) -> Option<f64> {
    shards
        .iter()
        .try_fold(0, |d, s| Some(s.pushes.get(&w)?.due.max(d)))
        .map(|d| d as f64)
}

/// `windows_per_s`: the rate at which windows became visible, median
/// over [`stats::RATE_SEGMENTS`] equal segments of `[start, stop)`.
fn segment_rate(visible: &[(f64, u32)], start: u64, stop: u64) -> Res<f64> {
    let steps: Vec<(u64, u32)> = visible.iter().map(|&(t, w)| (t as u64, w)).collect();
    stats::segment_rate(&steps, start, stop, stats::RATE_SEGMENTS)
        .ok_or_else(|| "too short a timed phase for the throughput segments".into())
}

fn finite(g: &Gaussian) -> bool {
    g.mean.is_finite() && g.var.is_finite() && g.var > 0.0
}

/// Percentile `p` of `values`, failing the run when too few samples
/// support it (fewer than ten beyond it).
fn pct(what: &str, values: &mut [f64], p: f64) -> Res<f64> {
    if p > 50.0 && !stats::supports(values.len(), p) {
        return Err(format!(
            "{} samples of {what} cannot support p{p}",
            values.len()
        ));
    }
    stats::percentile(values, p).ok_or_else(|| format!("no samples of {what}"))
}

fn hist_pct(what: &str, h: &mut NsHistogram, p: f64) -> Res<f64> {
    if !stats::supports(h.count() as usize, p) {
        return Err(format!(
            "{} samples of {what} cannot support p{p}",
            h.count()
        ));
    }
    h.percentile(p)
        .ok_or_else(|| format!("no samples of {what}"))
}

/// Accuracy and calibration against the simulator's true counts.
struct Scores {
    /// Σ-weighted error over the whole run ([`stats::weighted_rel_err_pct`]).
    rel_err_pct: f64,
    /// Its median over tenths of the run ([`stats::block_rel_err_pct`]).
    block_rel_err_pct: f64,
    coverage90_gap: f64,
}

/// Per-chunk EP statistics as the subscribers saw them.
#[derive(Clone, Copy)]
struct ChunkStats {
    shard: usize,
    last_window: u32,
    stats: bayesperf_inference::EpRunStats,
}

impl Measured {
    /// Checks every output, scores accuracy against the simulator's
    /// ground truth, and builds the report.
    fn report(mut self, args: &Args, inputs: &Inputs) -> Res<Outcome> {
        let (scores, chunks) = self.check_and_score(inputs)?;
        let mut ops = self.tally.ops;
        for shard in &self.shards {
            // Samples the program refused after `push_sample` accepted
            // them: late or non-finite ones.
            ops.fail_attempted(shard.monitor.late_samples() + shard.monitor.divergences());
        }
        let mut fresh: Vec<f64> = self.freshness.iter().map(|&(_, f)| f / 1e6).collect();
        let mut out = Outcome {
            attempted: ops.attempted,
            failed: ops.failed,
            metrics: Vec::new(),
        };
        let mut m = |name, value, unit| {
            out.metrics.push(Metric { name, value, unit });
        };
        let windows_per_s = self.windows_per_s;
        let cpu_ms = self.cpu_ns as f64 / 1e6 / self.windows_processed as f64;
        let fresh50 = pct("freshness", &mut fresh, 50.0)?;
        let fresh90 = pct("freshness", &mut fresh, 90.0)?;
        let ladder: Vec<String> = [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9]
            .iter()
            .map(|&p| {
                format!(
                    "p{p}={}",
                    self.tally.read_ns.percentile(p).unwrap_or(f64::NAN)
                )
            })
            .collect();
        eprintln!("perfbench: read ns {}", ladder.join(" "));
        let read50 = hist_pct("reads", &mut self.tally.read_ns, 50.0)?;
        let read99 = hist_pct("reads", &mut self.tally.read_ns, 99.0)?;
        if !args.trace {
            m(
                "setup_s",
                stats::median(&mut self.setup_s).ok_or("no set-up")?,
                "s",
            );
            m("windows_per_s", windows_per_s, "1/s");
            m("cpu_ms_per_window", cpu_ms, "ms");
            m("freshness_p50_ms", fresh50, "ms");
            m("freshness_p90_ms", fresh90, "ms");
            m("read_p50_ns", read50, "ns");
            m("read_p99_ns", read99, "ns");
            m("rel_err_pct", scores.rel_err_pct, "%");
            m("coverage90_gap", scores.coverage90_gap, "fraction");
            return Ok(out);
        }
        for metric in self.per_layer(inputs, &chunks, ops)? {
            out.metrics.push(metric);
        }
        let mut m = |name, value, unit| {
            out.metrics.push(Metric { name, value, unit });
        };
        m("traced.windows_per_s", windows_per_s, "1/s");
        m("traced.cpu_ms_per_window", cpu_ms, "ms");
        m("traced.freshness_p50_ms", fresh50, "ms");
        m("traced.read_p99_ns", read99, "ns");
        m(
            "accuracy.rel_err_pct_block_median",
            scores.block_rel_err_pct,
            "%",
        );
        Ok(out)
    }

    /// The correctness checks, and the accuracy and calibration scores:
    /// every pushed window published to each subscriber exactly once
    /// with no gap, every posterior finite with positive variance, and
    /// the scored posterior (the fused one on the fleet) compared with
    /// the simulator's true counts.
    fn check_and_score(&self, inputs: &Inputs) -> Res<(Scores, Vec<ChunkStats>)> {
        let truth = &inputs.runs[0].windows;
        let mut series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); inputs.hpcs.len()];
        let mut cov = Coverage::default();
        let mut chunks: HashMap<(usize, u64), ChunkStats> = HashMap::new();
        let fleet = self.scraper.is_some();
        for (s, shard) in self.shards.iter().enumerate() {
            if shard.received.len() != self.next as usize {
                return Err(format!(
                    "shard {s}: {} windows published for {} pushed",
                    shard.received.len(),
                    self.next
                ));
            }
            for (w, u) in shard.received.iter().enumerate() {
                if u.window as usize != w || u.gap != 0 {
                    return Err(format!(
                        "shard {s}: update #{w} is window {} with gap {}",
                        u.window, u.gap
                    ));
                }
                if u.posteriors.len() != inputs.hpcs.len() {
                    return Err(format!("shard {s}: window {w} lacks events"));
                }
                for (i, (e, g)) in u.posteriors.iter().enumerate() {
                    if *e != inputs.hpcs[i] || !finite(g) {
                        return Err(format!("shard {s}: window {w}: bad posterior {g:?}"));
                    }
                    if !fleet {
                        series[i].push((g.mean, truth[w].truth[e.index()]));
                        cov.add(g.mean, g.var, truth[w].truth[e.index()]);
                    }
                }
                let entry = chunks.entry((s, u.chunk)).or_insert(ChunkStats {
                    shard: s,
                    last_window: u.window,
                    stats: u.stats,
                });
                entry.last_window = entry.last_window.max(u.window);
            }
        }
        for (&w, post) in &self.fused {
            for (i, &e) in inputs.hpcs.iter().enumerate() {
                let g = post[e.index()];
                if !finite(&g) {
                    return Err(format!("fused window {w}: bad posterior {g:?}"));
                }
                series[i].push((g.mean, truth[w as usize].truth[e.index()]));
                cov.add(g.mean, g.var, truth[w as usize].truth[e.index()]);
            }
        }
        if fleet && self.fused.len() < self.freshness.len() / 2 {
            return Err(format!(
                "only {} fused windows seen with every shard aligned",
                self.fused.len()
            ));
        }
        let mut chunks: Vec<ChunkStats> = chunks.into_values().collect();
        chunks.sort_by_key(|c| (c.shard, c.last_window));
        let blocked = stats::block_rel_err_pct(&series, stats::ERR_BLOCKS)
            .ok_or("too few scored windows, or a block with no true counts")?;
        let whole: Vec<ErrSum> = series
            .iter()
            .map(|s| {
                let mut sum = ErrSum::default();
                for &(m, t) in s {
                    sum.add(m, t);
                }
                sum
            })
            .collect();
        for (e, err) in inputs.hpcs.iter().zip(&whole) {
            let pct = stats::weighted_rel_err_pct(std::slice::from_ref(err)).unwrap_or(f64::NAN);
            eprintln!(
                "perfbench: whole-run rel_err {pct:>9.2}% {}",
                inputs.catalog.event(*e).name
            );
        }
        let scores = Scores {
            rel_err_pct: stats::weighted_rel_err_pct(&whole).ok_or("no true counts")?,
            block_rel_err_pct: blocked,
            coverage90_gap: cov.gap().ok_or("no calibration points")?,
        };
        Ok((scores, chunks))
    }

    /// The traced run's per-layer metrics: the program's own span rings
    /// and EP statistics, and the critical-path split of freshness.
    fn per_layer(&mut self, inputs: &Inputs, chunks: &[ChunkStats], ops: Ops) -> Res<Vec<Metric>> {
        let k = inputs.k;
        // Spans per shard, on the benchmark clock, keyed by (stage, window).
        let mut spans: Vec<HashMap<(u8, u32), (u64, u64)>> = Vec::new();
        let mut stage_ns: BTreeMap<u8, Vec<f64>> = BTreeMap::new();
        let mut covered = 0u64;
        for shard in &mut self.shards {
            let log = &mut shard.spans;
            log.drain();
            let map: HashMap<(u8, u32), (u64, u64)> = log
                .spans
                .iter()
                .map(|&(st, w, s, e)| ((st, w), (s, e)))
                .collect();
            for (&(stage, w), &(s, e)) in &map {
                if w < self.first_timed {
                    continue;
                }
                // EP sweep and publish spans repeat per window of a
                // chunk: count them once, at the chunk's last window.
                let per_chunk = stage == Stage::EpSweep as u8 || stage == Stage::Publish as u8;
                if !per_chunk || (w + 1) % k == 0 {
                    stage_ns.entry(stage).or_default().push((e - s) as f64);
                }
                if stage == Stage::EpSweep as u8 {
                    covered += 1;
                }
            }
            spans.push(map);
        }
        let scrape_map: Vec<(u8, u32, u64, u64)> = match self.scraper.as_mut() {
            Some(sc) => {
                sc.spans.drain();
                sc.spans.spans.iter().copied().collect()
            }
            None => Vec::new(),
        };
        for &(stage, _, s, e) in &scrape_map {
            stage_ns.entry(stage).or_default().push((e - s) as f64);
        }
        let mut stage = |st: Stage, p: f64, scale: f64| -> f64 {
            stage_ns
                .get_mut(&(st as u8))
                .and_then(|v| stats::percentile(v, p))
                .map_or(0.0, |v| v / scale)
        };
        let ep50 = stage(Stage::EpSweep, 50.0, 1e6);
        let ep90 = stage(Stage::EpSweep, 90.0, 1e6);
        let ingest50 = stage(Stage::Ingest, 50.0, 1e6);
        let assemble50 = stage(Stage::Assemble, 50.0, 1e6);
        let publish50 = stage(Stage::Publish, 50.0, 1e3);
        let scrape50 = stage(Stage::Scrape, 50.0, 1e3);
        let fuse50 = stage(Stage::Fuse, 50.0, 1e3);

        // EP work per chunk of the timed phase.
        let timed: Vec<&ChunkStats> = chunks
            .iter()
            .filter(|c| c.last_window >= self.first_timed)
            .collect();
        let nc = timed.len().max(1) as f64;
        let sum = |f: &dyn Fn(&ChunkStats) -> f64| timed.iter().map(|c| f(c)).sum::<f64>();
        let site_updates =
            |c: &ChunkStats| (c.stats.mcmc_site_updates + c.stats.analytic_site_updates) as f64;
        let mut sweep_ns = 0.0;
        let mut swept_updates = 0.0;
        for c in &timed {
            if let Some((s, e)) = spans[c.shard].get(&(Stage::EpSweep as u8, c.last_window)) {
                sweep_ns += (e - s) as f64;
                swept_updates += site_updates(c);
            }
        }

        // Critical path of each chunk's freshness.
        let mut path: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut accounted = 0u64;
        for &(c, fresh) in &self.freshness {
            let last = k * c + k - 1;
            let Some(due) = last_due(&self.shards, last + 1) else {
                continue;
            };
            let due = due as u64;
            let visible = due + fresh as u64;
            // The shard that published the chunk last is on the path.
            let critical = spans
                .iter()
                .enumerate()
                .filter_map(|(i, m)| m.get(&(Stage::Publish as u8, last)).map(|p| (p.1, i)))
                .max();
            let Some((publish_end, s)) = critical else {
                continue;
            };
            let map = &spans[s];
            let get = |st: Stage| map.get(&(st as u8, last)).copied();
            let (Some(ingest), Some(assemble), Some(sweep), Some(publish)) = (
                get(Stage::Ingest),
                get(Stage::Assemble),
                get(Stage::EpSweep),
                get(Stage::Publish),
            ) else {
                continue;
            };
            let Some(push) = self.shards[s].pushes.get(&(last + 1)) else {
                continue;
            };
            let mut p = Path::new(due, visible);
            let mut stages = vec![
                ("path.gen_lag_ms", p.claim(push.due, push.start)),
                ("path.push_ms", p.claim(push.start, push.first_end)),
                ("path.ingest_ms", p.claim(ingest.0, ingest.1)),
                ("path.assemble_ms", p.claim(assemble.0, assemble.1)),
                ("path.ep_sweep_ms", p.claim(sweep.0, sweep.1)),
                ("path.publish_ms", p.claim(publish.0, publish.1)),
            ];
            if self.scraper.is_some() {
                // The round that made the chunk visible ended at
                // `visible`; the wait for it began at the publish.
                let Some(&(r0, r1)) = self.tally.rounds.iter().find(|r| r.1 == visible) else {
                    continue;
                };
                let inside = |st: Stage| {
                    scrape_map
                        .iter()
                        .filter(move |&&(s2, _, s, e)| s2 == st as u8 && s >= r0 && e <= r1)
                };
                if inside(Stage::Fuse).next().is_none() {
                    continue;
                }
                let mut scrape = 0;
                for &(_, _, s, e) in inside(Stage::Scrape) {
                    scrape += p.claim(s, e);
                }
                let mut fuse = 0;
                for &(_, _, s, e) in inside(Stage::Fuse) {
                    fuse += p.claim(s, e);
                }
                stages.push(("path.scrape_ms", scrape));
                stages.push(("path.fuse_ms", fuse));
                stages.push(("path.round_ms", p.claim(r0, r1)));
                stages.push(("path.scrape_wait_ms", p.claim(publish_end, r0)));
            }
            stages.push(("stage.unaccounted_ms", p.unclaimed()));
            for (name, ns) in stages {
                path.entry(name).or_default().push(ns as f64 / 1e6);
            }
            accounted += 1;
        }
        if accounted == 0 {
            return Err("no chunk had a complete span trace".into());
        }

        let mut gen_lag = self.tally.gen_lag_ns.clone();
        let mut rounds: Vec<f64> = self
            .tally
            .rounds
            .iter()
            .map(|(a, b)| (b - a) as f64)
            .collect();
        let sc = self.scraper.as_ref();
        let mut out = Vec::new();
        let mut m = |name, value, unit| out.push(Metric { name, value, unit });
        m("stage.ep_sweep_ms_p50", ep50, "ms");
        m("stage.ep_sweep_ms_p90", ep90, "ms");
        m(
            "ep.sweeps_per_chunk",
            sum(&|c| c.stats.sweeps_run as f64) / nc,
            "count",
        );
        m(
            "ep.converged_frac",
            sum(&|c| f64::from(u8::from(c.stats.converged))) / nc,
            "fraction",
        );
        m(
            "ep.mcmc_site_updates_per_chunk",
            sum(&|c| c.stats.mcmc_site_updates as f64) / nc,
            "count",
        );
        m(
            "ep.analytic_site_updates_per_chunk",
            sum(&|c| c.stats.analytic_site_updates as f64) / nc,
            "count",
        );
        m(
            "ep.mcmc_samples_per_chunk",
            sum(&|c| c.stats.mcmc_samples as f64) / nc,
            "count",
        );
        m(
            "ep.ns_per_site_update",
            if swept_updates > 0.0 {
                sweep_ns / swept_updates
            } else {
                0.0
            },
            "ns",
        );
        m(
            "ep.mean_acceptance",
            sum(&|c| c.stats.mean_acceptance) / nc,
            "fraction",
        );
        m(
            "ep.sites_quarantined",
            sum(&|c| c.stats.sites_quarantined as f64),
            "count",
        );
        m(
            "push_sample_ns_p50",
            hist_pct("pushes", &mut self.tally.push_ns, 50.0)?,
            "ns",
        );
        m(
            "push_sample_ns_p99",
            hist_pct("pushes", &mut self.tally.push_ns, 99.0)?,
            "ns",
        );
        m("stage.ingest_ms_p50", ingest50, "ms");
        m("stage.assemble_wait_ms_p50", assemble50, "ms");
        let shards = &self.shards;
        let count =
            |f: &dyn Fn(&Monitor) -> u64| shards.iter().map(|s| f(&s.monitor)).sum::<u64>() as f64;
        m("ingest.dropped", count(&|mon| mon.dropped()), "count");
        m("ingest.late", count(&|mon| mon.late_samples()), "count");
        m(
            "service.divergences",
            count(&|mon| mon.divergences()),
            "count",
        );
        m(
            "gen_lag_us_p99",
            pct("generator lag", &mut gen_lag, 99.0)? / 1e3,
            "us",
        );
        m("stage.publish_us_p50", publish50, "us");
        m(
            "snapshot_stamp_ns_p50",
            self.tally.stamp_ns.percentile(50.0).unwrap_or(0.0),
            "ns",
        );
        let (round50, round99) = if rounds.is_empty() {
            (0.0, 0.0)
        } else {
            (
                pct("scrape rounds", &mut rounds, 50.0)? / 1e3,
                pct("scrape rounds", &mut rounds, 99.0)? / 1e3,
            )
        };
        m("scrape.round_us_p50", round50, "us");
        m("scrape.round_us_p99", round99, "us");
        m(
            "scrape.bytes_per_round",
            sc.map_or(0.0, |s| s.bytes as f64 / s.rounds.max(1) as f64),
            "bytes",
        );
        m(
            "scrape.full_snapshot_frac",
            sc.map_or(0.0, |s| s.full as f64 / s.attempted.max(1) as f64),
            "fraction",
        );
        m(
            "scrape.failures",
            sc.map_or(0.0, |s| s.failures as f64),
            "count",
        );
        m("stage.scrape_us_p50", scrape50, "us");
        m("stage.fuse_us_p50", fuse50, "us");
        for name in [
            "path.gen_lag_ms",
            "path.push_ms",
            "path.ingest_ms",
            "path.assemble_ms",
            "path.ep_sweep_ms",
            "path.publish_ms",
            "path.scrape_wait_ms",
            "path.scrape_ms",
            "path.fuse_ms",
            "path.round_ms",
            "stage.unaccounted_ms",
        ] {
            let v = path
                .get_mut(name)
                .and_then(|v| stats::median(v))
                .unwrap_or(0.0);
            m(name, v, "ms");
        }
        m("trace.chunks_accounted", accounted as f64, "count");
        m("trace.windows_covered", covered as f64, "count");
        m("failed_frac", ops.failed_frac(), "fraction");
        Ok(out)
    }
}
