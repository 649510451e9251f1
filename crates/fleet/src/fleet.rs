//! The in-process fleet: sharded monitors, a lock-free ingest router, an
//! aggregator thread pumping the scrape plane, and fleet-scoped read
//! sessions.
//!
//! ```text
//!  producers                    Fleet                        readers
//!  ─────────                    ─────                        ───────
//!  push_sample(shard, s) ─▶ router (membership      FleetSession::read
//!                           snapshot cell, no        FleetSession::read_group
//!                           cross-shard locks)       FleetSession::read_derived
//!                              │                            ▲
//!                              ▼                            │ lock-free
//!                    shard 0 │ shard 1 │ … │ shard N        │ fused cell
//!                    Monitor │ Monitor │   │ Monitor        │
//!                       │        │            │             │
//!                   LocalTransport (ScrapeResponder         │
//!                   + liveness probe), one per shard        │
//!                       │        │            │             │
//!                       ▼        ▼            ▼             │
//!                    FleetScraper::poll_round: health → fuse┘
//!                    (pumped by the aggregator timer thread)
//! ```
//!
//! Each shard is a full [`Monitor`] (its own sample ring and inference
//! thread), so ingest fans out with **no cross-shard locking**: the
//! router resolves `ShardId → Monitor` through a read of the membership
//! snapshot cell (lock-free, wait-free for readers) and then touches only
//! that shard's ring. Shard churn republishes membership through the same
//! cell, so adding or draining machines never stalls producers on other
//! shards.
//!
//! Aggregation is the networked scrape plane's, not a second copy of it:
//! every shard is an endpoint of one [`FleetScraper`], reached through an
//! in-process [`ShardTransport`] that serves the shard's [`Session`] with
//! the same [`ScrapeResponder`] the socket servers run. A
//! [`poll_round`](FleetScraper::poll_round) therefore scrapes, ages
//! health, fuses and publishes a [`FleetSession`]'s [`FleetSnapshot`]
//! exactly as it does for remote shards — fleet-level reads stay as
//! wait-free as single-session reads at any shard count.
//!
//! The transport adds the one thing a local shard can offer that a remote
//! one cannot: a liveness probe. A monitor that is restarting, or whose
//! heartbeat is frozen while it is not idle and its snapshot stamp has not
//! moved, answers the round with [`ShimError::ScrapeTimeout`], so a hung
//! or crashed inference thread walks the same Healthy → Degraded → Stale
//! → Dead machine ([`crate::health`]) a dead remote shard does instead of
//! pinning its last posterior in the fleet forever. A permanently failed
//! monitor needs no special case: its session reports
//! [`ShimError::ServiceDown`], which the responder surfaces as a dropped
//! link.
//!
//! The aggregator thread is a timer: it pumps one round per scrape
//! interval (backing off exponentially while rounds publish nothing) and
//! one per [`Fleet::refresh`] or membership change. Each round runs under
//! `catch_unwind`, so a panic is contained and counted
//! (`fleet.agg_restarts`) and the next round carries on from the intact
//! scraper; a crash loop gives up after a bounded number of attempts.

// This file's non-test code must report failures as typed errors, never
// panic on them.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::fuse::FleetSnapshot;
use crate::health::HealthPolicy;
use crate::net::{
    FleetScraper, ScrapeConfig, ScrapeMetrics, ScrapeResponder, ScrapeTotals, ShardTransport,
};
use crate::topology::{ShardId, ShardLabel};
use crate::wire;
use bayesperf_core::corrector::CorrectorConfig;
use bayesperf_core::snapshot::{snapshot_cell, SnapshotReader, SnapshotWriter};
use bayesperf_core::{
    derived_reading, Monitor, Reading, Selection, ServiceState, Session, ShimError,
};
use bayesperf_events::{Catalog, EventId};
use bayesperf_obs::{merge_metrics, Counter, FlightEvent, MetricSnapshot, Telemetry};
use bayesperf_simcpu::Sample;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Consecutive crashed rounds tolerated before the aggregator thread
/// gives up (subsequent [`Fleet::refresh`] calls return
/// [`ShimError::SessionClosed`]).
const AGG_MAX_CONSECUTIVE_RESTARTS: u32 = 8;

/// Pause after a crashed round (flat — the scraper holds no per-round
/// state worth an exponential schedule).
const AGG_RESTART_BACKOFF: Duration = Duration::from_millis(2);

/// Fleet construction parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Corrector configuration every shard's monitor runs with.
    pub corrector: CorrectorConfig,
    /// Per-shard kernel↔shim ring capacity.
    pub ring_capacity: usize,
    /// How often the aggregator thread pumps a scrape round while rounds
    /// keep publishing; idle rounds back off from here (rounds also run
    /// on every [`Fleet::sync`]/[`Fleet::flush`]/[`Fleet::refresh`] and
    /// membership change).
    pub scrape_interval: Duration,
    /// Staleness thresholds for the scraper's health machine: a hung or
    /// crashed shard monitor ages through this policy's Healthy →
    /// Degraded → Stale → Dead machine, one step per failed round.
    pub health: HealthPolicy,
}

impl FleetConfig {
    /// Defaults: 16Ki-sample rings, 200µs scrape cadence, default
    /// [`HealthPolicy`] staleness thresholds.
    pub fn new(corrector: CorrectorConfig) -> FleetConfig {
        FleetConfig {
            corrector,
            ring_capacity: 1 << 14,
            scrape_interval: Duration::from_micros(200),
            health: HealthPolicy::default(),
        }
    }

    /// The in-process scraper's settings. No retries and no backoff:
    /// both protect remote links, and in-process a backoff would keep a
    /// Dead shard from recovering on its first good round.
    fn scrape_config(&self) -> ScrapeConfig {
        ScrapeConfig {
            retries: 0,
            backoff_cap_rounds: 0,
            concurrency: 1,
            health: self.health,
            ..ScrapeConfig::default()
        }
    }
}

/// One live shard: a monitor plus the always-all-events session its
/// endpoint serves.
struct ShardMember {
    id: ShardId,
    label: ShardLabel,
    monitor: Monitor,
    session: Session,
}

/// The membership view the router reads: shards in insertion order.
/// Published through a snapshot cell so lookups are lock-free and churn
/// never blocks producers.
type Membership = Vec<Arc<ShardMember>>;

/// A consistent fleet-level multi-event read (all readings from one fused
/// snapshot).
#[derive(Debug, Clone)]
pub struct FleetGroupReading {
    /// Generation of the snapshot (scrape rounds that published).
    pub generation: u64,
    /// Most advanced corrected window of any contributing shard.
    pub max_window: u32,
    /// Contributing shards.
    pub shards: usize,
    /// Fused readings of the selected events, in catalog order.
    pub readings: Vec<(EventId, Reading)>,
}

/// What every [`FleetSession`] reads: the scraper's fused cell, its
/// telemetry bundle and live scrape counters, and its cached fleet-wide
/// metric dump.
struct FleetShared {
    catalog: Arc<Catalog>,
    fused: SnapshotReader<FleetSnapshot>,
    closed: AtomicBool,
    tele: Telemetry,
    metrics: ScrapeMetrics,
    scraped: Arc<Mutex<Vec<MetricSnapshot>>>,
}

/// Locks the shared scraper, recovering it from a round that panicked
/// while holding it (the scraper's state stays consistent per endpoint,
/// and the next round rebuilds the fusion from scratch).
fn lock(scraper: &Mutex<FleetScraper>) -> MutexGuard<'_, FleetScraper> {
    scraper.lock().unwrap_or_else(|e| e.into_inner())
}

/// The in-process link to one shard: the shard's session served by a
/// [`ScrapeResponder`] behind a liveness probe of its monitor. The probe
/// keeps the heartbeat and snapshot stamp it saw last round, so a frozen
/// heartbeat on a non-idle service reads as a stall — unless the stamp
/// moved, which proves the service published since.
struct LocalTransport {
    member: Arc<ShardMember>,
    responder: ScrapeResponder<Session>,
    last_beats: u64,
    last_stamp: Option<(u32, u64)>,
}

impl LocalTransport {
    fn new(member: Arc<ShardMember>) -> LocalTransport {
        let responder =
            ScrapeResponder::new(member.id, member.label.clone(), member.session.clone());
        LocalTransport {
            member,
            responder,
            last_beats: 0,
            last_stamp: None,
        }
    }

    /// `Err(ScrapeTimeout)` when the service cannot be answering for its
    /// snapshot this round: it is restarting, or its heartbeat is frozen
    /// while it is not idle and its stamp has not moved. The heartbeat
    /// alone is racy — a long tail correction holds `idle` false with
    /// `beats` frozen, and a refresh forced right after a flush ack can
    /// probe the thread before it parks — so a moved stamp overrides it.
    fn probe(&mut self) -> Result<(), ShimError> {
        let (beats, idle) = self.member.monitor.heartbeat();
        let stamp = self.member.session.snapshot_stamp().ok();
        let advanced = stamp.is_some() && stamp != self.last_stamp;
        let live = match self.member.monitor.service_state() {
            ServiceState::Running => idle || beats != self.last_beats || advanced,
            // A failed service answers for itself: its session reports
            // `ServiceDown`, which the responder turns into a dropped link.
            ServiceState::Failed { .. } => true,
            // Restarting (and any future state): the snapshot is a cached
            // copy this round.
            _ => false,
        };
        self.last_beats = beats;
        if stamp.is_some() {
            self.last_stamp = stamp;
        }
        if live {
            Ok(())
        } else {
            Err(ShimError::ScrapeTimeout)
        }
    }
}

impl ShardTransport for LocalTransport {
    fn exchange(&mut self, request: &[u8], _deadline: Duration) -> Result<Vec<u8>, ShimError> {
        // Only scrape rounds probe: a telemetry pull between rounds must
        // not move the watchdog's baseline.
        if wire::peek_kind(request)? == wire::KIND_SCRAPE_REQ {
            self.probe()?;
        }
        self.responder.exchange(request)
    }
}

/// Control messages to the aggregator thread.
enum AggControl {
    /// Run a round and pull the shards' metric dumps now, then ack (the
    /// deterministic barrier behind [`Fleet::sync`]/[`Fleet::flush`]).
    Refresh(Sender<()>),
    /// Membership churned: run a round now and drop any idle backoff.
    Poke,
    /// Fault-injection test hook: the next round panics, exercising the
    /// crash-containment path.
    Panic,
    /// Exit the aggregator loop.
    Shutdown,
}

/// A fleet of sharded BayesPerf monitors with fused fleet-level reads.
///
/// One [`Monitor`] per shard (simulated machine/socket), a lock-free
/// sample router, and an aggregator thread pumping a [`FleetScraper`]
/// over every shard — see the module docs for the data flow. Dropping
/// (or [`Fleet::close`]-ing) the fleet stops the aggregator and drains
/// every shard.
pub struct Fleet {
    shared: Arc<FleetShared>,
    router: FleetRouter,
    members_writer: SnapshotWriter<Membership>,
    /// Writer-side copy of the membership (the cell holds clones).
    live: Vec<Arc<ShardMember>>,
    next_id: u32,
    config: FleetConfig,
    scraper: Arc<Mutex<FleetScraper>>,
    agg_restarts: Counter,
    control: Sender<AggControl>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("shards", &self.live.len())
            .field("closed", &self.shared.closed.load(Relaxed))
            .finish()
    }
}

impl Fleet {
    /// Creates an empty fleet over `catalog` and starts the aggregator
    /// thread. Add machines with [`Fleet::add_shard`].
    ///
    /// Returns [`ShimError::SpawnFailed`] if the OS refuses the thread.
    pub fn new(catalog: &Catalog, config: FleetConfig) -> Result<Fleet, ShimError> {
        let scraper = FleetScraper::new(catalog.len(), config.scrape_config());
        let shared = scraper.session(catalog).shared;
        let agg_restarts = shared.tele.registry().counter("fleet.agg_restarts");
        let (mut members_writer, members) = snapshot_cell::<Membership>();
        members_writer.publish(Vec::new());
        let scraper = Arc::new(Mutex::new(scraper));
        let (control, control_rx) = channel();
        let handle = {
            let scraper = scraper.clone();
            let restarts = agg_restarts.clone();
            let tele = shared.tele.clone();
            let interval = config.scrape_interval;
            std::thread::Builder::new()
                .name("bayesperf-fleet-agg".into())
                .spawn(move || run_aggregator(&scraper, &restarts, &tele, interval, &control_rx))
                .map_err(|_| ShimError::SpawnFailed {
                    what: "fleet aggregator",
                })?
        };
        Ok(Fleet {
            router: FleetRouter {
                shared: shared.clone(),
                members,
            },
            shared,
            members_writer,
            live: Vec::new(),
            next_id: 0,
            config,
            scraper,
            agg_restarts,
            control,
            handle: Some(handle),
        })
    }

    /// The monitored catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// Adds a shard: spawns a dedicated [`Monitor`] (ring + supervised
    /// inference thread) for the labelled machine/socket, registers it as
    /// a scraper endpoint and publishes the new membership. Ids are never
    /// reused across churn.
    ///
    /// Returns [`ShimError::SpawnFailed`] if the OS refuses the shard's
    /// inference thread (the fleet itself stays usable).
    pub fn add_shard(&mut self, label: ShardLabel) -> Result<ShardId, ShimError> {
        let id = ShardId::from_raw(self.next_id);
        self.next_id += 1;
        let monitor = Monitor::new(
            &self.shared.catalog,
            self.config.corrector.clone(),
            self.config.ring_capacity,
        )?;
        let session = monitor.session().open()?;
        let member = Arc::new(ShardMember {
            id,
            label: label.clone(),
            monitor,
            session,
        });
        lock(&self.scraper).add_endpoint(id, label, Box::new(LocalTransport::new(member.clone())));
        self.live.push(member);
        self.members_writer.publish(self.live.clone());
        // Wake the aggregator out of any idle backoff: the new shard
        // must appear in the next fused snapshot promptly.
        let _ = self.control.send(AggControl::Poke);
        Ok(id)
    }

    /// Removes a shard: unpublishes it from the membership (in-flight
    /// routed pushes finish against the old view), drops its endpoint and
    /// closes its monitor. Its contribution disappears from the next
    /// fused snapshot.
    pub fn remove_shard(&mut self, shard: ShardId) -> Result<(), ShimError> {
        let i = self
            .live
            .iter()
            .position(|m| m.id == shard)
            .ok_or(ShimError::UnknownShard { shard: shard.raw() })?;
        self.live.remove(i);
        // Publish twice: the cell double-buffers, so the first publish
        // leaves the previous membership (holding the removed shard's
        // Arc) in the spare slot; the second overwrites it. With the
        // endpoint gone too, the monitor shuts down here rather than at
        // the next churn event.
        self.members_writer.publish(self.live.clone());
        self.members_writer.publish(self.live.clone());
        lock(&self.scraper).remove_endpoint(shard)?;
        let _ = self.control.send(AggControl::Poke);
        Ok(())
    }

    /// Current shards, in insertion order.
    pub fn shards(&self) -> Vec<(ShardId, ShardLabel)> {
        self.live.iter().map(|m| (m.id, m.label.clone())).collect()
    }

    /// A cloneable, `Send + Sync` ingest handle for producer threads.
    pub fn router(&self) -> FleetRouter {
        self.router.clone()
    }

    /// Routes one kernel sample to its shard's ring. Lock-free resolve
    /// (membership snapshot cell), per-shard ring push — producers on
    /// different shards never contend. Samples must stay window-ordered
    /// *per shard* (see [`Monitor::push_sample`]).
    pub fn push_sample(&self, shard: ShardId, sample: Sample) -> Result<(), ShimError> {
        self.router.push_sample(shard, sample)
    }

    /// A direct read session on one shard (per-machine drill-down).
    pub fn shard_session(&self, shard: ShardId) -> Result<Session, ShimError> {
        Ok(self.router.member(shard)?.session.clone())
    }

    /// Runs `f` against one shard's local [`Monitor`] — supervision
    /// drill-down (restart counters, heartbeat, schedule hooks,
    /// fault-injection) on a fleet member without exposing ownership of
    /// the monitor itself.
    pub fn with_shard_monitor<R>(
        &self,
        shard: ShardId,
        f: impl FnOnce(&Monitor) -> R,
    ) -> Result<R, ShimError> {
        Ok(f(&self.router.member(shard)?.monitor))
    }

    /// Blocks until every shard has ingested and corrected everything
    /// pushed before this call, then runs a scrape round ([`Fleet::refresh`])
    /// — the deterministic fleet-wide barrier: the fused snapshot covers
    /// every shard's progress when it returns. The shards sync
    /// concurrently ([`Monitor::sync_all`]).
    pub fn sync(&self) -> Result<(), ShimError> {
        Monitor::sync_all(self.live.iter().map(|m| &m.monitor))?;
        self.refresh()
    }

    /// Flushes every shard's ragged tail (partial final chunk), all shards
    /// concurrently ([`Monitor::flush_all`]), then runs a scrape round
    /// ([`Fleet::refresh`]).
    pub fn flush(&self) -> Result<(), ShimError> {
        Monitor::flush_all(self.live.iter().map(|m| &m.monitor))?;
        self.refresh()
    }

    /// Runs one scrape round now and blocks until it is done, then pulls
    /// every shard's metric dump for [`FleetSession::fleet_metrics`].
    pub fn refresh(&self) -> Result<(), ShimError> {
        let (tx, rx) = channel();
        self.control
            .send(AggControl::Refresh(tx))
            .map_err(|_| ShimError::SessionClosed)?;
        rx.recv().map_err(|_| ShimError::SessionClosed)
    }

    /// Starts building a fleet-scoped read session.
    pub fn session(&self) -> FleetSessionBuilder<'_> {
        FleetSessionBuilder {
            fleet: self,
            events: None,
            err: None,
        }
    }

    /// The latest fused snapshot (with per-shard posteriors for
    /// percentile/straggler views).
    pub fn snapshot(&self) -> Result<FleetSnapshot, ShimError> {
        read_snapshot(&self.shared)
    }

    /// Crashed rounds the aggregator thread has contained (served from
    /// the registry counter `fleet.agg_restarts`).
    pub fn agg_restarts(&self) -> u64 {
        self.agg_restarts.get()
    }

    /// The fleet's telemetry plane — the scraper's: the `scrape.*` /
    /// `health.*` / `fleet.*` metric namespace, the scrape and fuse span
    /// rings, and the flight recorder logging aggregator restarts and
    /// shard health transitions. Per-shard service telemetry lives on
    /// each shard's [`Monitor`] (reach it via
    /// [`Fleet::with_shard_monitor`], or merged through
    /// [`FleetSession::fleet_metrics`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.tele
    }

    /// Fault-injection test hook: makes the aggregator thread's next
    /// round panic, exercising the crash-containment path. Observe
    /// recovery via [`Fleet::agg_restarts`].
    pub fn inject_agg_panic(&self) -> Result<(), ShimError> {
        self.control
            .send(AggControl::Panic)
            .map_err(|_| ShimError::SessionClosed)
    }

    /// Stops the aggregator, drains every shard and stops their monitors.
    /// Subsequent fleet reads and pushes return
    /// [`ShimError::SessionClosed`]. Idempotent; also runs on drop.
    pub fn close(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        let _ = self.control.send(AggControl::Shutdown);
        let _ = handle.join();
        self.shared.closed.store(true, Relaxed);
        // Dropping the endpoints and members closes each monitor
        // (flushing its tail).
        let mut scraper = lock(&self.scraper);
        for m in self.live.drain(..) {
            let _ = scraper.remove_endpoint(m.id);
        }
        self.members_writer.publish(Vec::new());
        self.members_writer.publish(Vec::new());
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.close();
    }
}

/// The aggregator thread: a timer pumping the scraper. It runs a round
/// per control message and, between messages, one per scrape interval —
/// doubling the wait (up to 64×) for each consecutive round that published
/// nothing, so an idle fleet parks instead of polling at full rate. Each
/// round runs under `catch_unwind`: a panic is counted and logged, and the
/// next round proceeds from the intact scraper; a crash loop (more than
/// [`AGG_MAX_CONSECUTIVE_RESTARTS`] crashed rounds in a row) ends the
/// thread, and with it every later [`Fleet::refresh`].
fn run_aggregator(
    scraper: &Mutex<FleetScraper>,
    restarts: &Counter,
    tele: &Telemetry,
    interval: Duration,
    control: &Receiver<AggControl>,
) {
    let mut idle_streak = 0u32;
    let mut consecutive = 0u32;
    loop {
        let msg = match control.recv_timeout(idle_backoff_interval(interval, idle_streak)) {
            Ok(AggControl::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) => None,
        };
        let woken = msg.is_some();
        let round = catch_unwind(AssertUnwindSafe(|| match msg {
            Some(AggControl::Panic) => panic!("injected aggregator panic (test hook)"),
            Some(AggControl::Refresh(ack)) => {
                let mut scraper = lock(scraper);
                let report = scraper.poll_round();
                scraper.poll_telemetry();
                let _ = ack.send(());
                report
            }
            _ => lock(scraper).poll_round(),
        }));
        match round {
            Ok(report) => {
                consecutive = 0;
                idle_streak = if woken || report.published {
                    0
                } else {
                    idle_streak.saturating_add(1)
                };
            }
            Err(payload) => {
                restarts.incr();
                tele.flight().record(FlightEvent::AggRestart {
                    restarts: restarts.get(),
                    cause: panic_cause(payload),
                });
                consecutive += 1;
                if consecutive > AGG_MAX_CONSECUTIVE_RESTARTS {
                    return;
                }
                std::thread::sleep(AGG_RESTART_BACKOFF);
            }
        }
    }
}

/// Widest idle multiplier: an idle fleet's aggregator decays to polling
/// at `interval × 2⁶ = 64×` — slow enough to stop burning a core on
/// stamp pre-checks, bounded so a fleet that resumes without churn is
/// still noticed promptly. Churn wakes it immediately via
/// [`AggControl::Poke`].
const IDLE_BACKOFF_MAX_SHIFT: u32 = 6;

/// The aggregator's wait before its next unsolicited round, after
/// `idle_streak` consecutive rounds that published nothing:
/// `interval × 2^min(streak, 6)`. Pure, so the schedule is testable
/// without a thread.
fn idle_backoff_interval(interval: Duration, idle_streak: u32) -> Duration {
    interval.saturating_mul(1 << idle_streak.min(IDLE_BACKOFF_MAX_SHIFT))
}

/// Best-effort panic-payload rendering for flight-recorder causes.
fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Cloneable producer handle: routes samples to shards through the
/// membership cell without holding any fleet-wide lock.
#[derive(Clone)]
pub struct FleetRouter {
    shared: Arc<FleetShared>,
    members: SnapshotReader<Membership>,
}

impl std::fmt::Debug for FleetRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetRouter").finish()
    }
}

impl FleetRouter {
    /// See [`Fleet::push_sample`].
    pub fn push_sample(&self, shard: ShardId, sample: Sample) -> Result<(), ShimError> {
        self.member(shard)?.monitor.push_sample(sample)
    }

    /// Resolves a shard id through the membership cell (lock-free).
    fn member(&self, shard: ShardId) -> Result<Arc<ShardMember>, ShimError> {
        if self.shared.closed.load(Relaxed) {
            return Err(ShimError::SessionClosed);
        }
        let guard = self.members.read().ok_or(ShimError::SessionClosed)?;
        guard
            .iter()
            .find(|m| m.id == shard)
            .cloned()
            .ok_or(ShimError::UnknownShard { shard: shard.raw() })
    }
}

fn read_snapshot(shared: &FleetShared) -> Result<FleetSnapshot, ShimError> {
    if shared.closed.load(Relaxed) {
        return Err(ShimError::SessionClosed);
    }
    let guard = shared.fused.read().ok_or(ShimError::NoShards)?;
    Ok(guard.clone())
}

/// Configures and opens a [`FleetSession`]. Event selection defaults to
/// the whole catalog, mirroring [`Monitor::session`].
#[derive(Debug)]
pub struct FleetSessionBuilder<'f> {
    fleet: &'f Fleet,
    events: Option<Vec<EventId>>,
    err: Option<ShimError>,
}

impl FleetSessionBuilder<'_> {
    /// Restricts the session to `events` (adds to any previous selection).
    pub fn events(mut self, events: &[EventId]) -> Self {
        for &e in events {
            self = self.event(e);
        }
        self
    }

    /// Adds one event to the selection.
    pub fn event(mut self, event: EventId) -> Self {
        if event.index() >= self.fleet.catalog().len() {
            self.err.get_or_insert(ShimError::UnknownEvent(event));
            return self;
        }
        self.events.get_or_insert_with(Vec::new).push(event);
        self
    }

    /// Adds a derived event by name: its components join the selection so
    /// [`FleetSession::read_derived`] can evaluate it.
    pub fn derived(mut self, name: &str) -> Self {
        let components = self
            .fleet
            .catalog()
            .derived_events()
            .iter()
            .find(|d| d.name == name)
            .map(|d| d.events());
        match components {
            Some(events) => self.events(&events),
            None => {
                self.err
                    .get_or_insert(ShimError::UnknownDerived(name.to_string()));
                self
            }
        }
    }

    /// Opens the session.
    pub fn open(self) -> Result<FleetSession, ShimError> {
        if let Some(err) = self.err {
            return Err(err);
        }
        if self.fleet.shared.closed.load(Relaxed) {
            return Err(ShimError::SessionClosed);
        }
        Ok(FleetSession {
            shared: self.fleet.shared.clone(),
            selection: Arc::new(Selection::new(self.events)),
        })
    }
}

/// Builds a whole-catalog [`FleetSession`] over a scraper's published
/// fused snapshots, telemetry bundle, live scrape counters and cached
/// fleet-wide metric dump (see
/// [`FleetScraper::session`](crate::FleetScraper::session)).
pub(crate) fn scraper_session(
    catalog: &Catalog,
    fused: SnapshotReader<FleetSnapshot>,
    tele: Telemetry,
    metrics: ScrapeMetrics,
    scraped: Arc<Mutex<Vec<MetricSnapshot>>>,
) -> FleetSession {
    FleetSession {
        shared: Arc::new(FleetShared {
            catalog: Arc::new(catalog.clone()),
            fused,
            closed: AtomicBool::new(false),
            tele,
            metrics,
            scraped,
        }),
        selection: Arc::new(Selection::new(None)),
    }
}

/// A fleet-scoped read handle mirroring [`Session`]: cheap to clone,
/// sendable, and wait-free — every read is served from the latest fused
/// snapshot, never from the shards themselves.
#[derive(Clone)]
pub struct FleetSession {
    shared: Arc<FleetShared>,
    selection: Arc<Selection>,
}

impl std::fmt::Debug for FleetSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSession")
            .field("selection", &self.selection)
            .finish()
    }
}

impl FleetSession {
    fn ensure_open(&self) -> Result<(), ShimError> {
        if self.shared.closed.load(Relaxed) {
            Err(ShimError::SessionClosed)
        } else {
            Ok(())
        }
    }

    fn check_event(&self, event: EventId) -> Result<(), ShimError> {
        if event.index() >= self.shared.catalog.len() || !self.selection.contains(event) {
            return Err(ShimError::UnknownEvent(event));
        }
        Ok(())
    }

    /// The monitored catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// Reads the fleet-fused posterior of `event` (one lock-free
    /// acquisition of the fused cell, independent of shard count).
    pub fn read(&self, event: EventId) -> Result<Reading, ShimError> {
        self.ensure_open()?;
        self.check_event(event)?;
        let guard = self.shared.fused.read().ok_or(ShimError::NoShards)?;
        Ok(Reading::from_gaussian(&guard.fused[event.index()]))
    }

    /// Reads all selected events from **one** fused snapshot.
    pub fn read_group(&self) -> Result<FleetGroupReading, ShimError> {
        self.ensure_open()?;
        let guard = self.shared.fused.read().ok_or(ShimError::NoShards)?;
        let readings = self
            .selection
            .iter(&self.shared.catalog)
            .map(|e| (e, Reading::from_gaussian(&guard.fused[e.index()])))
            .collect();
        Ok(FleetGroupReading {
            generation: guard.generation,
            max_window: guard.max_window(),
            shards: guard.shards.len(),
            readings,
        })
    }

    /// Evaluates a derived event on the fused posteriors — the same
    /// central-difference propagation as
    /// [`Session::read_derived`], so per-machine and
    /// fleet-level metrics agree by construction. The session must have
    /// selected the metric's components
    /// ([`FleetSessionBuilder::derived`] does exactly that).
    pub fn read_derived(&self, name: &str) -> Result<Reading, ShimError> {
        self.ensure_open()?;
        let derived = self
            .shared
            .catalog
            .derived_events()
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| ShimError::UnknownDerived(name.to_string()))?;
        for e in derived.events() {
            self.check_event(e)?;
        }
        let guard = self.shared.fused.read().ok_or(ShimError::NoShards)?;
        Ok(derived_reading(derived, &guard.fused))
    }

    /// Every contributing shard's own posterior of `event`, sorted by
    /// shard id — the drill-down behind the fused number.
    pub fn shard_readings(&self, event: EventId) -> Result<Vec<(ShardId, Reading)>, ShimError> {
        self.ensure_open()?;
        self.check_event(event)?;
        let guard = self.shared.fused.read().ok_or(ShimError::NoShards)?;
        Ok(guard
            .shards
            .iter()
            .zip(&guard.per_shard)
            .map(|(s, p)| (s.shard, Reading::from_gaussian(&p[event.index()])))
            .collect())
    }

    /// The latest fused snapshot (percentile/straggler views included).
    pub fn snapshot(&self) -> Result<FleetSnapshot, ShimError> {
        read_snapshot(&self.shared)
    }

    /// Cumulative scrape-plane totals — the running sums of every
    /// [`RoundReport`](crate::RoundReport) the backing
    /// [`FleetScraper`] has produced (for an in-process [`Fleet`], the
    /// scraper its aggregator thread pumps), read live from its counter
    /// handles so byte/failure history survives whoever pumped
    /// `poll_round`.
    pub fn scrape_totals(&self) -> Result<ScrapeTotals, ShimError> {
        self.ensure_open()?;
        Ok(self.shared.metrics.totals())
    }

    /// The fleet-wide metric dump: the scraper's own registry merged with
    /// the last shard metric dump it pulled — by
    /// [`FleetScraper::poll_telemetry`](crate::FleetScraper::poll_telemetry),
    /// which every [`Fleet::refresh`] (and so every flush and sync) runs.
    /// Render with
    /// [`render_prometheus`](bayesperf_obs::render_prometheus).
    pub fn fleet_metrics(&self) -> Result<Vec<MetricSnapshot>, ShimError> {
        self.ensure_open()?;
        let mut out = self.shared.tele.registry().snapshot();
        let scraped = self
            .shared
            .scraped
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        merge_metrics(&mut out, &scraped);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_backoff_doubles_then_caps() {
        let base = Duration::from_micros(200);
        assert_eq!(idle_backoff_interval(base, 0), base);
        assert_eq!(idle_backoff_interval(base, 1), base * 2);
        assert_eq!(idle_backoff_interval(base, 3), base * 8);
        assert_eq!(idle_backoff_interval(base, 6), base * 64);
        // The cap holds for arbitrarily long idle streaks — no overflow,
        // no unbounded sleep.
        assert_eq!(idle_backoff_interval(base, 7), base * 64);
        assert_eq!(idle_backoff_interval(base, u32::MAX), base * 64);
        // Saturates instead of panicking for huge base intervals.
        let huge = Duration::from_secs(u64::MAX / 2);
        assert_eq!(idle_backoff_interval(huge, 32), Duration::MAX);
    }
}
